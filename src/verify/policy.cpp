#include "verify/policy.h"

#include "junos/anonymizer.h"

namespace confanon::verify {

namespace {

/// Appends `list`'s entries (from `from` onward) under one origin label,
/// continuing the dialect-wide index sequence.
void AppendEntries(const std::vector<std::string>& tokens, std::size_t from,
                   const char* origin, DialectPolicy& policy) {
  for (std::size_t i = from; i < tokens.size(); ++i) {
    policy.entries.push_back(
        {tokens[i], origin, policy.entries.size()});
  }
}

/// Length of the longest common prefix of `tokens` with the builtin
/// corpus's load order — the part of a custom pass-list that is really
/// just the baseline it was built from.
std::size_t BuiltinPrefixLength(const std::vector<std::string>& tokens) {
  const std::vector<std::string>& builtin =
      passlist::PassList::SharedBuiltin()->Entries();
  std::size_t n = 0;
  while (n < tokens.size() && n < builtin.size() &&
         tokens[n] == builtin[n]) {
    ++n;
  }
  // A partial overlap that is not the whole baseline means the list was
  // assembled independently; treat everything as custom so each entry is
  // anchored to the operator's list.
  return n == builtin.size() ? n : 0;
}

DialectPolicy IosPolicy(const core::AnonymizerOptions& options) {
  DialectPolicy policy;
  policy.dialect = Dialect::kIos;
  policy.disabled_rules = options.disabled_rules;
  const std::vector<std::string>& tokens = options.pass_list->Entries();
  policy.baseline_count = BuiltinPrefixLength(tokens);
  AppendEntries(tokens, 0, kOriginBuiltin, policy);
  for (std::size_t i = policy.baseline_count; i < policy.entries.size();
       ++i) {
    policy.entries[i].origin = kOriginCustom;
  }
  AppendEntries(options.extra_pass_list.Entries(), 0, kOriginExtra, policy);
  return policy;
}

DialectPolicy JunosPolicy(const core::AnonymizerOptions& options) {
  DialectPolicy policy;
  policy.dialect = Dialect::kJunos;
  // The JunOS engine ignores options.pass_list and disabled_rules; its
  // effective list is always the shared JunOS list plus the extras.
  const std::vector<std::string>& baseline =
      junos::SharedJunosPassList()->Entries();
  policy.baseline_count = baseline.size();
  AppendEntries(baseline, 0, kOriginJunosBuiltin, policy);
  AppendEntries(options.extra_pass_list.Entries(), 0, kOriginExtra, policy);
  return policy;
}

}  // namespace

const char* DialectName(Dialect dialect) {
  return dialect == Dialect::kIos ? "ios" : "junos";
}

PolicySpec BuiltinPolicy() {
  return PolicyFromOptions(core::AnonymizerOptions{});
}

PolicySpec PolicyFromOptions(const core::AnonymizerOptions& options) {
  PolicySpec spec;
  spec.dialects.push_back(IosPolicy(options));
  spec.dialects.push_back(JunosPolicy(options));
  return spec;
}

bool SamePolicyInputs(const core::AnonymizerOptions& a,
                      const core::AnonymizerOptions& b) {
  return (a.pass_list == b.pass_list ||
          a.pass_list->Entries() == b.pass_list->Entries()) &&
         a.extra_pass_list.Entries() == b.extra_pass_list.Entries() &&
         a.disabled_rules == b.disabled_rules;
}

}  // namespace confanon::verify
