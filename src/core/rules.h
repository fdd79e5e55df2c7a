// The rule table: every context rule of both dialect rule packs, by id.
//
// Paper Section 4.2 describes the anonymizer as 28 named context rules,
// and its Section 6.1 refinement loop reads their fire counts and
// disables them by name; the JunOS rule pack adds 13 "J." rules. A rule's
// name and dialect live only here: rule packs count fires by id, engines
// resolve disabled_rules names once, and the report, the metrics, the
// provenance log and the policy verifier read names back from kRuleTable.
// CONFANON_RULES expands into both the enum and the table, in byte order
// of the names (checked below), so walking the table by index lists rules
// in name order.
#pragma once

#include <algorithm>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#define CONFANON_RULES(X)                                      \
  X(kRouterBgp, "A1.router-bgp", kIos)                         \
  X(kSetCommunity, "A10.set-community", kIos)                  \
  X(kSetExtcommunity, "A11.set-extcommunity", kIos)            \
  X(kAsnAudit, "A12.asn-audit", kIos)                          \
  X(kNeighborRemoteAs, "A2.neighbor-remote-as", kIos)          \
  X(kNeighborLocalAs, "A3.neighbor-local-as", kIos)            \
  X(kConfedIdentifier, "A4.confederation-identifier", kIos)    \
  X(kConfedPeers, "A5.confederation-peers", kIos)              \
  X(kAsPathRegex, "A6.as-path-regex", kIos)                    \
  X(kAsPathPrepend, "A7.as-path-prepend", kIos)                \
  X(kCommunityListLiteral, "A8.community-list-literal", kIos)  \
  X(kCommunityListRegex, "A9.community-list-regex", kIos)      \
  X(kStripBangComments, "C1.strip-bang-comments", kIos)        \
  X(kStripFreeText, "C2.strip-free-text", kIos)                \
  X(kStripBanners, "C3.strip-banners", kIos)                   \
  X(kMapAddresses, "I1.map-addresses", kIos)                   \
  X(kSpecialPassthrough, "I2.special-passthrough", kIos)       \
  X(kMapPrefixes, "I3.map-cidr-prefixes", kIos)                \
  X(kAddressMaskPairs, "I4.address-mask-pairs", kIos)          \
  X(kAddressWildcardPairs, "I5.address-wildcard-pairs", kIos)  \
  X(kPlainAddressArgs, "I6.plain-address-args", kIos)          \
  X(kSubnetPreload, "I7.subnet-preload", kIos)                 \
  X(kJunosAsPathPrepend, "J.as-path-prepend", kJunos)          \
  X(kJunosAsPathRegex, "J.as-path-regex", kJunos)              \
  X(kJunosAsnStatement, "J.asn-statement", kJunos)             \
  X(kJunosCommunityLiteral, "J.community-literal", kJunos)     \
  X(kJunosCommunityRegex, "J.community-regex", kJunos)         \
  X(kJunosMapAddresses, "J.map-addresses", kJunos)             \
  X(kJunosMapPrefixes, "J.map-prefixes", kJunos)               \
  X(kJunosNameArguments, "J.name-arguments", kJunos)           \
  X(kJunosPasslistHash, "J.passlist-hash", kJunos)             \
  X(kJunosSpecialPassthrough, "J.special-passthrough", kJunos) \
  X(kJunosStripBlockComment, "J.strip-block-comment", kJunos)  \
  X(kJunosStripFreeText, "J.strip-free-text", kJunos)          \
  X(kJunosStripHashComment, "J.strip-hash-comment", kJunos)    \
  X(kDialerStrings, "M1.dialer-strings", kIos)                 \
  X(kSnmpStrings, "M2.snmp-strings", kIos)                     \
  X(kSecrets, "M3.secrets", kIos)                              \
  X(kNameArguments, "M4.name-arguments", kIos)                 \
  X(kSegmentWords, "T1.segment-words", kIos)                   \
  X(kPasslistHash, "T2.passlist-hash", kIos)

namespace confanon::core {

enum class Rule : std::uint8_t {
#define CONFANON_RULE_ID(id, name, dialect) id,
  CONFANON_RULES(CONFANON_RULE_ID)
#undef CONFANON_RULE_ID
};

/// Which rule pack a rule belongs to. Only IOS rules can be disabled.
enum class RuleDialect : std::uint8_t { kIos, kJunos };

struct RuleInfo {
  Rule id;
  std::string_view name;
  RuleDialect dialect;
};

inline constexpr RuleInfo kRuleTable[] = {
#define CONFANON_RULE_ROW(id, name, dialect) \
  {Rule::id, name, RuleDialect::dialect},
    CONFANON_RULES(CONFANON_RULE_ROW)
#undef CONFANON_RULE_ROW
};

inline constexpr std::size_t kRuleCount = std::size(kRuleTable);

constexpr std::size_t RuleIndex(Rule rule) {
  return static_cast<std::size_t>(rule);
}

static_assert(std::ranges::adjacent_find(kRuleTable,
                                         std::ranges::greater_equal{},
                                         &RuleInfo::name) ==
                  std::ranges::end(kRuleTable),
              "CONFANON_RULES must list rules in strictly increasing byte "
              "order of their names");

constexpr std::string_view RuleName(Rule rule) {
  return kRuleTable[RuleIndex(rule)].name;
}

/// The rule named `name`, of either dialect; nullopt for an unknown name.
constexpr std::optional<Rule> RuleFromName(std::string_view name) {
  for (const RuleInfo& info : kRuleTable) {
    if (info.name == name) return info.id;
  }
  return std::nullopt;
}

/// A set of rules, one bit per id.
using RuleSet = std::bitset<kRuleCount>;

/// The rules `names` names. Unknown names are skipped: the policy
/// verifier reports them (VER-007), and they disable nothing.
inline RuleSet RuleSetFromNames(const std::set<std::string>& names) {
  RuleSet set;
  for (const std::string& name : names) {
    if (const std::optional<Rule> rule = RuleFromName(name)) {
      set.set(RuleIndex(*rule));
    }
  }
  return set;
}

}  // namespace confanon::core

#undef CONFANON_RULES
