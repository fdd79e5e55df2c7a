#include "verify/verify.h"

#include <chrono>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "audit/refgraph.h"
#include "core/rules.h"
#include "net/ipv4.h"
#include "net/special.h"
#include "regex/dfa_to_regex.h"
#include "regex/intersect.h"
#include "util/strings.h"
#include "verify/recognizer.h"

namespace confanon::verify {

namespace {

using audit::Anchor;
using audit::Finding;
using audit::Severity;
using core::Rule;

Anchor EntryAnchor(const PolicyEntry& entry) {
  return Anchor{entry.origin, entry.index};
}

std::string Where(Dialect dialect) {
  return std::string("[") + DialectName(dialect) + "] ";
}

bool IsSpecialAddressToken(std::string_view token) {
  const auto address = net::Ipv4Address::Parse(token);
  return address && net::IsSpecial(*address);
}

bool HasNonAlpha(std::string_view token) {
  for (const char c : token) {
    if (!util::IsAsciiAlpha(c)) return true;
  }
  return false;
}

/// First-occurrence index of every distinct token, in load order.
std::unordered_map<std::string_view, std::size_t> FirstOccurrences(
    const DialectPolicy& policy) {
  std::unordered_map<std::string_view, std::size_t> first;
  first.reserve(policy.entries.size());
  for (std::size_t i = 0; i < policy.entries.size(); ++i) {
    first.try_emplace(policy.entries[i].text, i);
  }
  return first;
}

/// Analysis 1 — language intersection. Proves each recognizer language
/// disjoint from the pass-list's verbatim language; on failure, every
/// offending entry gets a VER-001 error carrying the intersection's
/// shortest witness. Tokens flagged here are recorded in `leaky` so the
/// reachability pass does not double-report them as dead entries.
void AnalyzeIntersections(const DialectPolicy& policy,
                          audit::AuditResult& result,
                          std::unordered_set<std::string_view>& leaky,
                          std::uint64_t& dfa_states) {
  const auto first = FirstOccurrences(policy);
  // Two verbatim-language DFAs: all distinct tokens, and the subset that
  // does not parse as a special address (for recognizers exempting rule
  // I2's passthrough). Built once per dialect — the literal DFA is the
  // expensive automaton, the recognizers are tiny.
  std::vector<std::string> all_tokens;
  std::vector<std::string> non_special_tokens;
  all_tokens.reserve(first.size());
  non_special_tokens.reserve(first.size());
  bool any_special = false;
  for (const auto& [token, index] : first) {
    (void)index;
    all_tokens.emplace_back(token);
    if (IsSpecialAddressToken(token)) {
      any_special = true;  // rule I2 passes special addresses legitimately
    } else {
      non_special_tokens.emplace_back(token);
    }
  }
  const regex::Dfa all_dfa = regex::BuildDfaFromStrings(all_tokens).Minimize();
  const regex::Dfa non_special_dfa =
      any_special ? regex::BuildDfaFromStrings(non_special_tokens).Minimize()
                  : regex::Dfa(all_dfa);
  dfa_states += static_cast<std::uint64_t>(all_dfa.StateCount());
  if (any_special) {
    dfa_states += static_cast<std::uint64_t>(non_special_dfa.StateCount());
  }
  for (const Recognizer& recognizer : SensitiveRecognizers()) {
    const regex::Dfa& literal_dfa =
        recognizer.exempt_special_addresses ? non_special_dfa : all_dfa;
    dfa_states += static_cast<std::uint64_t>(recognizer.dfa.StateCount());
    const auto witness =
        regex::ShortestIntersectionWitness(recognizer.dfa, literal_dfa);
    if (!witness) continue;  // disjoint: this class is provably safe
    for (const auto& [token, index] : first) {
      if (recognizer.exempt_special_addresses &&
          IsSpecialAddressToken(token)) {
        continue;
      }
      if (!recognizer.dfa.FullMatch(token)) continue;
      leaky.insert(token);
      Finding finding;
      finding.rule_id = "VER-001";
      finding.severity = Severity::kError;
      finding.anchor = EntryAnchor(policy.entries[index]);
      finding.message =
          Where(policy.dialect) + "pass-list entry '" + std::string(token) +
          "' lies inside the " + recognizer.name +
          " language (normally transformed by " + recognizer.rule_hint +
          "); shortest witness of the intersection: '" + *witness +
          "'. The entry survives anonymization verbatim wherever it "
          "appears as a whole identifier.";
      result.findings.push_back(std::move(finding));
    }
  }
}

/// Analysis 2 — reachability and shadowing (VER-002..004).
void AnalyzeReachability(const PolicySpec& spec,
                         const DialectPolicy& policy,
                         const std::unordered_set<std::string_view>& leaky,
                         audit::AuditResult& result) {
  // VER-003: later loads of an already-present token are inert — the
  // pass-list is a set, so the second Add can only mislead whoever
  // maintains the list.
  std::unordered_map<std::string_view, std::size_t> seen;
  seen.reserve(policy.entries.size());
  for (std::size_t i = 0; i < policy.entries.size(); ++i) {
    const PolicyEntry& entry = policy.entries[i];
    const auto [it, inserted] = seen.try_emplace(entry.text, i);
    if (inserted) continue;
    const PolicyEntry& original = policy.entries[it->second];
    Finding finding;
    finding.rule_id = "VER-003";
    finding.severity = Severity::kWarning;
    finding.anchor = EntryAnchor(entry);
    finding.related = EntryAnchor(original);
    finding.message = Where(policy.dialect) + "entry '" + entry.text +
                      "' shadows an identical earlier entry (" +
                      original.origin + ":" +
                      std::to_string(original.index + 1) +
                      "); the later load is inert.";
    result.findings.push_back(std::move(finding));
  }

  // VER-002: the word tokenizer only ever tests maximal alphabetic runs
  // against the pass-list (paper rule T1), so an entry with any
  // non-alphabetic byte can never match a segment — it is only
  // reachable through whole-identifier lookups (file names, forced name
  // arguments, JunOS whole tokens).
  for (const auto& [token, index] : FirstOccurrences(policy)) {
    if (leaky.contains(token)) continue;  // already a VER-001 error
    if (!HasNonAlpha(token)) continue;
    Finding finding;
    finding.rule_id = "VER-002";
    finding.severity = Severity::kWarning;
    finding.anchor = EntryAnchor(policy.entries[index]);
    finding.message =
        Where(policy.dialect) + "entry '" + std::string(token) +
        "' contains non-alphabetic characters: T1 segmentation only "
        "tests alphabetic runs, so the entry is dead for word "
        "anonymization and reachable only via whole-identifier "
        "exemptions.";
    result.findings.push_back(std::move(finding));
  }

  // VER-004: a custom token pass-listed here but hashed by the other
  // dialect's engine — the same word survives in one corpus and turns
  // into a hash token in the other, breaking cross-dialect referential
  // integrity for mixed corpora.
  for (const DialectPolicy& other : spec.dialects) {
    if (other.dialect == policy.dialect) continue;
    std::unordered_set<std::string_view> other_tokens;
    other_tokens.reserve(other.entries.size());
    for (const PolicyEntry& entry : other.entries) {
      other_tokens.insert(entry.text);
    }
    std::unordered_set<std::string_view> reported;
    for (std::size_t i = policy.baseline_count; i < policy.entries.size();
         ++i) {
      const PolicyEntry& entry = policy.entries[i];
      if (other_tokens.contains(entry.text)) continue;
      if (!reported.insert(entry.text).second) continue;
      Finding finding;
      finding.rule_id = "VER-004";
      finding.severity = Severity::kWarning;
      finding.anchor = EntryAnchor(entry);
      finding.message =
          "custom entry '" + entry.text + "' is pass-listed in " +
          DialectName(policy.dialect) + " but hashed in " +
          DialectName(other.dialect) +
          " — a mixed corpus maps the same word two ways. (The JunOS "
          "engine honors only extra_pass_list, not a replaced IOS "
          "pass_list.)";
      result.findings.push_back(std::move(finding));
    }
  }
}

/// One transform rule's coverage obligation for the taint analysis.
struct RuleCoverage {
  Rule rule;
  Severity severity;
  const char* value_class;
};

/// Every disableable rule other than T1/T2 (which are handled by the
/// symbol-space closure) mapped to the value class it covers.
constexpr RuleCoverage kRuleCoverage[] = {
    {Rule::kStripBangComments, Severity::kWarning,
     "operator free text in '!' comments"},
    {Rule::kStripFreeText, Severity::kWarning,
     "free text (descriptions, remarks)"},
    {Rule::kStripBanners, Severity::kWarning, "login/motd banner text"},
    {Rule::kDialerStrings, Severity::kError, "dialer strings (phone numbers)"},
    {Rule::kSnmpStrings, Severity::kError, "SNMP community strings"},
    {Rule::kSecrets, Severity::kError, "passwords and secrets"},
    {Rule::kNameArguments, Severity::kError,
     "named-entity arguments (hostnames, map names)"},
    {Rule::kRouterBgp, Severity::kError, "router bgp ASN"},
    {Rule::kNeighborRemoteAs, Severity::kError, "neighbor remote-as ASN"},
    {Rule::kNeighborLocalAs, Severity::kError, "neighbor local-as ASN"},
    {Rule::kConfedIdentifier, Severity::kError, "confederation identifier ASN"},
    {Rule::kConfedPeers, Severity::kError, "confederation peer ASNs"},
    {Rule::kAsPathRegex, Severity::kError, "as-path regexp language"},
    {Rule::kAsPathPrepend, Severity::kError, "as-path prepend ASNs"},
    {Rule::kCommunityListLiteral, Severity::kError, "community-list literals"},
    {Rule::kCommunityListRegex, Severity::kError,
     "community-list regexp language"},
    {Rule::kSetCommunity, Severity::kError, "set community values"},
    {Rule::kSetExtcommunity, Severity::kError, "set extcommunity values"},
    {Rule::kAsnAudit, Severity::kNote, "residual-ASN audit (detection only)"},
    {Rule::kMapAddresses, Severity::kError, "IPv4 address literals"},
    {Rule::kSpecialPassthrough, Severity::kNote,
     "special-address passthrough (masks stay verbatim; disabling only "
     "maps more)"},
    {Rule::kMapPrefixes, Severity::kError, "CIDR prefixes"},
    {Rule::kAddressMaskPairs, Severity::kError, "address/mask pairs"},
    {Rule::kAddressWildcardPairs, Severity::kError, "address/wildcard pairs"},
    {Rule::kPlainAddressArgs, Severity::kError, "plain address arguments"},
    {Rule::kSubnetPreload, Severity::kNote,
     "subnet-address preload (consistency, not secrecy)"},
};

/// Analysis 3 — taint closure over symbol spaces (VER-005..007). Only
/// the IOS policy carries a disable surface; the JunOS engine has none.
void AnalyzeTaint(const DialectPolicy& policy, audit::AuditResult& result) {
  if (policy.disabled_rules.empty()) return;

  // Every finding here anchors to the rule set as a whole.
  const auto add = [&](const char* id, Severity severity,
                       const std::string& message) {
    result.findings.push_back(Finding{id, severity,
                                      Anchor{"<rules>", Anchor::kNoLine},
                                      {}, Where(policy.dialect) + message});
  };

  // Only the IOS rows of the rule table can be disabled: a JunOS rule's
  // name is as inert here as a typo.
  for (const std::string& name : policy.disabled_rules) {
    const std::optional<Rule> rule = core::RuleFromName(name);
    if (rule && core::kRuleTable[core::RuleIndex(*rule)].dialect ==
                    core::RuleDialect::kIos) {
      continue;
    }
    add("VER-007", Severity::kWarning,
        "disabled_rules names '" + name +
            "', which is not a known rule — likely a typo, and the "
            "intended rule stays enabled.");
  }

  // T1/T2 are the only transforms covering operator-chosen names, and
  // refgraph's nine symbol spaces are exactly where such names live.
  // With either disabled, every space is a taint source with no sink.
  const core::RuleSet disabled =
      core::RuleSetFromNames(policy.disabled_rules);
  const bool words_covered =
      !disabled[core::RuleIndex(Rule::kSegmentWords)] &&
      !disabled[core::RuleIndex(Rule::kPasslistHash)];
  if (!words_covered) {
    constexpr audit::SymbolSpace kSpaces[] = {
        audit::SymbolSpace::kAcl,           audit::SymbolSpace::kRouteMap,
        audit::SymbolSpace::kPrefixList,    audit::SymbolSpace::kCommunityList,
        audit::SymbolSpace::kAsPathList,    audit::SymbolSpace::kPeerGroup,
        audit::SymbolSpace::kInterface,     audit::SymbolSpace::kKeyChain,
        audit::SymbolSpace::kNatPool,
    };
    for (const audit::SymbolSpace space : kSpaces) {
      add("VER-005", Severity::kError,
          "symbol space '" + std::string(audit::SymbolSpaceName(space)) +
              "' carries operator-named identifiers but its only covering "
              "transform (T1/T2 word hashing) is disabled: def/use edges "
              "smuggle raw names into the output.");
    }
  }

  for (const RuleCoverage& coverage : kRuleCoverage) {
    if (!disabled[core::RuleIndex(coverage.rule)]) continue;
    add("VER-006", coverage.severity,
        "rule " + std::string(core::RuleName(coverage.rule)) +
            " is disabled, leaving its value class uncovered: " +
            coverage.value_class + ".");
  }
}

}  // namespace

audit::AuditResult VerifyPolicy(const PolicySpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  audit::AuditResult result;
  std::uint64_t entries = 0;
  std::uint64_t distinct = 0;
  std::uint64_t dfa_states = 0;
  for (const DialectPolicy& policy : spec.dialects) {
    entries += policy.entries.size();
    distinct += FirstOccurrences(policy).size();
    std::unordered_set<std::string_view> leaky;
    AnalyzeIntersections(policy, result, leaky, dfa_states);
    AnalyzeReachability(spec, policy, leaky, result);
    AnalyzeTaint(policy, result);
  }
  result.stats["verify.entries"] = entries;
  result.stats["verify.distinct_tokens"] = distinct;
  result.stats["verify.findings"] = result.findings.size();
  result.stats["verify.dfa_states"] = dfa_states;
  result.stats["verify.verify_ns"] = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return result;
}

audit::AuditResult VerifyEngineOptions(
    const core::AnonymizerOptions& options) {
  return VerifyPolicy(PolicyFromOptions(options));
}

core::PolicyVerdict VerdictOf(const audit::AuditResult& result) {
  core::PolicyVerdict verdict;
  verdict.verified = true;
  const Finding* first = nullptr;
  for (const Finding& finding : result.findings) {
    switch (finding.severity) {
      case Severity::kError:
        ++verdict.errors;
        break;
      case Severity::kWarning:
        ++verdict.warnings;
        break;
      case Severity::kNote:
        ++verdict.notes;
        break;
    }
    if (first == nullptr || finding.severity < first->severity) {
      first = &finding;
    }
  }
  if (first != nullptr) {
    verdict.first_finding = first->ToString();
  }
  return verdict;
}

}  // namespace confanon::verify
