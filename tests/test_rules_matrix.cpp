// Rule-by-rule matrix: every context rule whose disablement changes
// output is exercised twice — with the full rule set (its leak marker
// must be gone) and with just that rule disabled (the marker must
// survive, proving the rule and nothing else was responsible). This pins
// 25 of the 28 IOS rules to an observable behaviour, I2 to its defence in
// depth, and guards against rules silently shadowing one another. A12
// (the residual-ASN record) and I7 (the preload order) change no marker.
#include <gtest/gtest.h>

#include <sstream>

#include "core/anonymizer.h"

namespace confanon::core {
namespace {

struct RuleCase {
  const char* name;    // for test labels
  Rule rule;           // rule to disable in the "crippled" run
  const char* config;  // input
  const char* marker;  // identity-bearing text the rule removes
};

void PrintTo(const RuleCase& c, std::ostream* os) { *os << c.name; }

std::string RunCase(const RuleCase& test_case, bool disable) {
  AnonymizerOptions options;
  options.salt = "matrix-salt";
  if (disable) {
    options.disabled_rules.emplace(RuleName(test_case.rule));
  }
  Anonymizer anonymizer(std::move(options));
  return anonymizer
      .AnonymizeNetwork(
          {config::ConfigFile::FromText("r", test_case.config)})
      .front()
      .ToText();
}

class RuleMatrix : public ::testing::TestWithParam<RuleCase> {};

TEST_P(RuleMatrix, FullRuleSetRemovesMarker) {
  EXPECT_EQ(RunCase(GetParam(), false).find(GetParam().marker),
            std::string::npos)
      << RunCase(GetParam(), false);
}

TEST_P(RuleMatrix, DisabledRuleLeaksMarker) {
  EXPECT_NE(RunCase(GetParam(), true).find(GetParam().marker), std::string::npos)
      << RunCase(GetParam(), true);
}

TEST_P(RuleMatrix, RuleFiresInReport) {
  AnonymizerOptions options;
  options.salt = "matrix-salt";
  Anonymizer anonymizer(std::move(options));
  anonymizer.AnonymizeNetwork(
      {config::ConfigFile::FromText("r", GetParam().config)});
  EXPECT_GT(anonymizer.report().Fires(GetParam().rule), 0u)
      << RuleName(GetParam().rule);
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, RuleMatrix,
    ::testing::Values(
        // The comment rules are what remove *pass-listed* phrases whose
        // arrangement leaks ("global crossing", Section 4.2) — with the
        // rule off, generic hashing passes those words through.
        RuleCase{"C1_bang_comment", Rule::kStripBangComments,
                 "! circuit leased from global crossing\n", "global crossing"},
        RuleCase{"C2_description", Rule::kStripFreeText,
                 "interface Ethernet0\n description link via global crossing\n",
                 "global crossing"},
        RuleCase{"C3_banner", Rule::kStripBanners,
                 "banner motd ^C\nglobal crossing transit network\n^C\n",
                 "global crossing"},
        RuleCase{"M1_dialer", Rule::kDialerStrings,
                 "dialer string 14085551234\n", "14085551234"},
        // SNMP community strings and passwords can be pass-listed words
        // ("public", "cisco"); only the force-hash rules remove them.
        RuleCase{"M2_snmp", Rule::kSnmpStrings,
                 "snmp-server community public RO\n", "public"},
        RuleCase{"M3_secret", Rule::kSecrets,
                 "enable password cisco\n", "cisco"},
        RuleCase{"M4_hostname", Rule::kNameArguments,
                 // "router" is pass-listed: only the force-hash rule
                 // touches it.
                 "hostname router\n", "hostname router"},
        RuleCase{"A1_router_bgp", Rule::kRouterBgp, "router bgp 1111\n",
                 "1111"},
        RuleCase{"A2_remote_as", Rule::kNeighborRemoteAs,
                 "router bgp 65000\n neighbor 10.0.0.1 remote-as 701\n",
                 "remote-as 701"},
        RuleCase{"A3_local_as", Rule::kNeighborLocalAs,
                 "router bgp 65000\n neighbor 10.0.0.1 local-as 702\n",
                 "local-as 702"},
        RuleCase{"A4_confed_id", Rule::kConfedIdentifier,
                 "router bgp 65000\n bgp confederation identifier 703\n",
                 "703"},
        RuleCase{"A5_confed_peers", Rule::kConfedPeers,
                 "router bgp 65000\n bgp confederation peers 704 705\n",
                 "704"},
        RuleCase{"A6_aspath_regex", Rule::kAsPathRegex,
                 "ip as-path access-list 50 permit _70[2-5]_\n", "70[2-5]"},
        RuleCase{"A7_prepend", Rule::kAsPathPrepend,
                 "route-map X permit 10\n set as-path prepend 701 701\n",
                 "701 701"},
        RuleCase{"A8_commlist_literal", Rule::kCommunityListLiteral,
                 "ip community-list 5 permit 701:120\n", "701:120"},
        RuleCase{"A9_commlist_regex", Rule::kCommunityListRegex,
                 "ip community-list 100 permit 701:7[1-5]..\n", "7[1-5].."},
        RuleCase{"A10_set_community", Rule::kSetCommunity,
                 "route-map X permit 10\n set community 701:7100\n",
                 "701:7100"},
        RuleCase{"A11_extcommunity", Rule::kSetExtcommunity,
                 "route-map X permit 10\n set extcommunity rt 701:99\n",
                 "701:99"},
        RuleCase{"I1_address", Rule::kMapAddresses,
                 "logging 12.34.56.78\n", "12.34.56.78"},
        RuleCase{"I3_cidr", Rule::kMapPrefixes,
                 "ip route 12.34.0.0/16 Null0\n", "12.34.0.0/16"},
        // I4/I5/I6 gate the address mapping on the lines of their
        // context: with one disabled, those addresses stay as written.
        RuleCase{"I4_mask_pair", Rule::kAddressMaskPairs,
                 "interface Ethernet0\n ip address 12.34.56.78 255.255.255.0\n",
                 "12.34.56.78"},
        RuleCase{"I5_wildcard_pair", Rule::kAddressWildcardPairs,
                 "access-list 10 permit 12.34.56.0 0.0.0.255\n", "12.34.56.0"},
        RuleCase{"I6_plain_address", Rule::kPlainAddressArgs,
                 "ntp server 12.34.56.78\n", "12.34.56.78"},
        // T1 and T2 are one transform: with either disabled, a word no
        // other rule handles keeps its operator-chosen name.
        RuleCase{"T1_segment_words", Rule::kSegmentWords,
                 "route-map UUNET-import permit 10\n", "UUNET-import"},
        RuleCase{"T2_passlist_hash", Rule::kPasslistHash,
                 "route-map UUNET-import permit 10\n", "UUNET-import"}),
    [](const ::testing::TestParamInfo<RuleCase>& info) {
      return info.param.name;
    });

// I2 is defence in depth: even with the rule disabled the netmask
// survives, because the IP map itself passes special addresses through
// (Section 4.3's modification lives in the data structure, the rule only
// short-circuits and accounts for it).
TEST(RuleMatrixSpecial, SpecialPassthroughIsDefenceInDepth) {
  const RuleCase protect{"", Rule::kSpecialPassthrough,
                         "interface Ethernet0\n"
                         " ip address 12.0.0.1 255.255.255.0\n",
                         "255.255.255.0"};
  EXPECT_NE(RunCase(protect, false).find("255.255.255.0"), std::string::npos);
  EXPECT_NE(RunCase(protect, true).find("255.255.255.0"), std::string::npos);
}

// --- Section 5 known-entity relationship export ---

TEST(KnownEntities, ExportsAnonymizedGroupings) {
  AnonymizerOptions options;
  options.salt = "entity-salt";
  AnonymizerOptions::KnownEntity entity;
  entity.label = "UUNET";  // operator-side only
  entity.asns = {701, 702};
  entity.prefixes = {*net::Prefix::Parse("157.130.0.0/16")};
  options.known_entities.push_back(entity);
  Anonymizer anonymizer(options);
  anonymizer.AnonymizeNetwork({config::ConfigFile::FromText(
      "r", "router bgp 65000\n neighbor 157.130.0.1 remote-as 701\n")});

  std::ostringstream out;
  anonymizer.ExportKnownEntities(out);
  const std::string text = out.str();
  // The label never appears; the mapped values do.
  EXPECT_EQ(text.find("UUNET"), std::string::npos);
  EXPECT_NE(text.find(std::to_string(anonymizer.asn_map().Map(701))),
            std::string::npos);
  EXPECT_NE(text.find(std::to_string(anonymizer.asn_map().Map(702))),
            std::string::npos);
  // Prefixes are exported canonicalized (host bits of the mapped base
  // truncated); containment of mapped member addresses still holds by
  // prefix preservation.
  const net::Prefix mapped_prefix(
      anonymizer.ip_anonymizer().Map(*net::Ipv4Address::Parse("157.130.0.0")),
      16);
  EXPECT_NE(text.find(mapped_prefix.ToString()), std::string::npos);
  EXPECT_TRUE(mapped_prefix.Contains(anonymizer.ip_anonymizer().Map(
      *net::Ipv4Address::Parse("157.130.0.1"))));
  // Original values never appear.
  EXPECT_EQ(text.find(" 701 "), std::string::npos);
  EXPECT_EQ(text.find("157.130.0.0"), std::string::npos);
}

TEST(KnownEntities, EmptyByDefault) {
  AnonymizerOptions options;
  options.salt = "entity-salt";
  Anonymizer anonymizer(std::move(options));
  std::ostringstream out;
  anonymizer.ExportKnownEntities(out);
  EXPECT_TRUE(out.str().empty());
}

TEST(KnownEntities, GroupingIsConsistentWithConfigRewrites) {
  // The exported grouping must agree with what the configs now say: the
  // neighbor line's rewritten ASN equals the entity's exported ASN.
  AnonymizerOptions options;
  options.salt = "entity-salt-2";
  AnonymizerOptions::KnownEntity entity;
  entity.asns = {1239};
  options.known_entities.push_back(entity);
  Anonymizer anonymizer(options);
  const auto post = anonymizer.AnonymizeNetwork(
      {config::ConfigFile::FromText(
          "r", "router bgp 65000\n neighbor 10.0.0.1 remote-as 1239\n")});
  std::ostringstream out;
  anonymizer.ExportKnownEntities(out);
  const std::string mapped = std::to_string(anonymizer.asn_map().Map(1239));
  EXPECT_NE(out.str().find(mapped), std::string::npos);
  EXPECT_NE(post.front().ToText().find("remote-as " + mapped),
            std::string::npos);
}

}  // namespace
}  // namespace confanon::core
