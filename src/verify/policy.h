// The policy model the static verifier analyzes.
//
// A "policy" is everything that decides what survives anonymization
// verbatim before any config line is read: the per-dialect pass-list
// (baseline corpus + custom additions, in load order), and the set of
// rewrite rules left enabled. The verifier (verify.h) runs over this
// model with no input corpus — the point is to reject a contradictory
// rule set at load time, before a session exists.
//
// Per-dialect asymmetries are modeled faithfully rather than papered
// over: the IOS engine honors AnonymizerOptions::pass_list (replacing
// the builtin corpus) and disabled_rules, while the JunOS engine ignores
// both and only honors extra_pass_list on top of JunosPassList(). A
// custom token that lands in one dialect's effective set but not the
// other's is exactly the cross-dialect conflict VER-004 reports.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "core/anonymizer.h"
#include "passlist/passlist.h"

namespace confanon::verify {

/// Which engine's effective policy a DialectPolicy describes.
enum class Dialect {
  kIos,
  kJunos,
};

const char* DialectName(Dialect dialect);

/// One pass-list entry in load order, with the provenance the findings
/// anchor to: `origin` becomes the anchor's file label and `index` its
/// (zero-based) line.
struct PolicyEntry {
  std::string text;    // lowercased, as PassList stores it
  std::string origin;  // "<builtin>", "<junos-builtin>", "<extra>", ...
  std::size_t index;   // load position within the whole dialect list
};

/// The effective policy of one dialect engine.
struct DialectPolicy {
  Dialect dialect = Dialect::kIos;
  /// Every entry in load order (baseline first, then custom additions),
  /// duplicates preserved — shadowing analysis needs them.
  std::vector<PolicyEntry> entries;
  /// entries[0..baseline_count) came from the dialect's builtin corpus;
  /// the rest are operator-supplied (custom pass-list tail or extras).
  std::size_t baseline_count = 0;
  /// Rule names the engine will skip (empty for JunOS, which has no
  /// disable surface).
  std::set<std::string> disabled_rules;
};

/// The full cross-dialect policy under verification.
struct PolicySpec {
  std::vector<DialectPolicy> dialects;
};

/// Origin labels used for anchors.
inline constexpr char kOriginBuiltin[] = "<builtin>";
inline constexpr char kOriginJunosBuiltin[] = "<junos-builtin>";
inline constexpr char kOriginCustom[] = "<custom>";
inline constexpr char kOriginExtra[] = "<extra>";

/// The shipped policy: builtin corpora at both dialects, no custom
/// entries, nothing disabled. `confanon_audit --policy` proves this
/// clean, and a test pins it that way.
PolicySpec BuiltinPolicy();

/// Models the policy `options` produces across both dialect engines.
/// The IOS baseline is the longest common prefix of options.pass_list's
/// load order with the builtin corpus (a wholly custom list has an empty
/// baseline); extras are appended to both dialects, matching how
/// core::Anonymizer and junos::JunosAnonymizer consume the options.
PolicySpec PolicyFromOptions(const core::AnonymizerOptions& options);

/// True when PolicyFromOptions reads the same inputs from `a` and `b`:
/// equal IOS pass-list entries, equal extra entries and equal disabled
/// rules, so both model one policy and one verdict holds for both. Lets
/// pipeline::AnonymizeNetworkSet reuse the set context's verdict for a
/// network instead of verifying the same policy again.
bool SamePolicyInputs(const core::AnonymizerOptions& a,
                      const core::AnonymizerOptions& b);

}  // namespace confanon::verify
