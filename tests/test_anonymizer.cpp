#include "core/anonymizer.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/leak_detector.h"
#include "core/session.h"
#include "core/string_hasher.h"
#include "net/prefix.h"
#include "util/strings.h"

namespace confanon::core {
namespace {

config::ConfigFile File(std::string_view text) {
  return config::ConfigFile::FromText("router", text);
}

Anonymizer MakeAnonymizer(std::string salt = "test-salt") {
  AnonymizerOptions options;
  options.salt = std::move(salt);
  return Anonymizer(std::move(options));
}

std::string AnonymizeText(std::string_view text,
                          std::string salt = "test-salt") {
  Anonymizer anonymizer = MakeAnonymizer(std::move(salt));
  return anonymizer.AnonymizeNetwork({File(text)}).front().ToText();
}

// --- string hasher ---

TEST(StringHasher, ReferentialIntegrity) {
  StringHasher hasher("salt");
  const std::string a = hasher.Hash("UUNET-import");
  const std::string b = hasher.Hash("UUNET-import");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, hasher.Hash("UUNET-export"));
  EXPECT_EQ(hasher.DistinctCount(), 2u);
}

TEST(StringHasher, TokenShape) {
  StringHasher hasher("salt");
  const std::string token = hasher.Hash("anything");
  EXPECT_EQ(token.size(), 11u);
  EXPECT_EQ(token[0], 'h');
}

TEST(StringHasher, SaltChangesTokens) {
  StringHasher a("salt-a"), b("salt-b");
  EXPECT_NE(a.Hash("name"), b.Hash("name"));
}

TEST(StringHasher, OriginalsRecorded) {
  StringHasher hasher("salt");
  hasher.Hash("one");
  hasher.Hash("two");
  const auto originals = hasher.Originals();
  EXPECT_EQ(std::set<std::string>(originals.begin(), originals.end()),
            (std::set<std::string>{"one", "two"}));
}

TEST(StringHasher, FindProbesWithoutInstalling) {
  StringHasher hasher("salt");
  EXPECT_EQ(hasher.Find("fresh-word"), nullptr);
  EXPECT_EQ(hasher.DistinctCount(), 0u);
  const std::string& token = hasher.Hash("fresh-word");
  const std::string* found = hasher.Find("fresh-word");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &token);
}

// --- comment rules ---

TEST(Anonymizer, StripsBangCommentText) {
  const std::string out = AnonymizeText("! secret note about acme corp\n!\n");
  EXPECT_EQ(out, "!\n!\n");
}

TEST(Anonymizer, BangCommentEdgeCases) {
  // Rule C1 fires when the first word starts with '!' and is not a bare
  // '!' alone on the line; a fired line keeps its indent, one space per
  // leading blank.
  struct Case {
    const char* in;
    const char* out;
    bool fires;
  };
  for (const Case& c : {
           Case{"!\n", "!\n", false},
           Case{"!x\n", "!\n", true},
           Case{"! text\n", "!\n", true},
           Case{"!\tnote\n", "!\n", true},
           Case{"  !\n", "  !\n", false},
           Case{"\t!\n", "\t!\n", false},
           Case{"! \n", "! \n", false},
           Case{"!\t\n", "!\t\n", false},
           Case{"  !x\n", "  !\n", true},
           Case{"\t! text\n", " !\n", true},
           Case{" \t !\t x\n", "   !\n", true},
           Case{"x !\n", "x !\n", false},
           Case{"   \n", "   \n", false},
       }) {
    Anonymizer anonymizer = MakeAnonymizer();
    const std::string out =
        anonymizer.AnonymizeNetwork({File(c.in)}).front().ToText();
    EXPECT_EQ(out, c.out) << testing::PrintToString(c.in);
    EXPECT_EQ(anonymizer.report().Fires(Rule::kStripBangComments),
              c.fires ? 1u : 0u)
        << testing::PrintToString(c.in);
  }
}

TEST(Anonymizer, StripsDescriptionPayload) {
  const std::string out =
      AnonymizeText("interface Ethernet0\n description Foo Corp LAX office\n");
  EXPECT_NE(out.find("description"), std::string::npos);
  EXPECT_EQ(out.find("Foo"), std::string::npos);
  EXPECT_EQ(out.find("LAX"), std::string::npos);
}

TEST(Anonymizer, StripsRemarkPayload) {
  const std::string out =
      AnonymizeText("access-list 10 remark customers of acme\n");
  EXPECT_EQ(out.find("acme"), std::string::npos);
  EXPECT_NE(out.find("remark"), std::string::npos);
  EXPECT_NE(out.find("access-list 10"), std::string::npos);
}

TEST(Anonymizer, StripsBannerBlock) {
  const std::string out = AnonymizeText(
      "banner motd ^C\nWelcome to AcmeNet\n^C\ninterface Ethernet0\n");
  EXPECT_EQ(out.find("Acme"), std::string::npos);
  EXPECT_EQ(out.find("banner"), std::string::npos);
  EXPECT_NE(out.find("interface Ethernet0"), std::string::npos);
}

TEST(Anonymizer, PassListedWordsInCommentsStillStripped) {
  // "global crossing" is composed of pass-listed words but must go
  // (Section 4.2).
  const std::string out = AnonymizeText(
      "interface Serial0\n description circuit leased from global crossing\n");
  EXPECT_EQ(out.find("global"), std::string::npos);
  EXPECT_EQ(out.find("crossing"), std::string::npos);
}

TEST(Anonymizer, CommentStrippingCanBeDisabled) {
  AnonymizerOptions options;
  options.salt = "s";
  options.strip_comments = false;
  Anonymizer anonymizer{std::move(options)};
  const auto out = anonymizer.AnonymizeNetwork(
      {File("interface Ethernet0\n description link via globex hq\n")});
  // Free text survives as hashed words rather than disappearing.
  EXPECT_EQ(out.front().ToText().find("globex"), std::string::npos);
  EXPECT_NE(out.front().ToText().find("description"), std::string::npos);
}

// --- pass-list hashing ---

TEST(Anonymizer, KeywordsSurvive) {
  const std::string out =
      AnonymizeText("interface Ethernet0\n ip address 10.1.1.1 255.255.255.0\n");
  EXPECT_NE(out.find("interface Ethernet0"), std::string::npos);
  EXPECT_NE(out.find("ip address"), std::string::npos);
}

TEST(Anonymizer, InterfaceRemainderSurvives) {
  // Ethernet0/0 -> "ethernet" passes, "0/0" untouched (the paper's
  // motivating example for segmentation).
  const std::string out = AnonymizeText("interface FastEthernet0/0\n");
  EXPECT_NE(out.find("FastEthernet0/0"), std::string::npos);
}

TEST(Anonymizer, UnknownNamesHashedConsistently) {
  const std::string out = AnonymizeText(
      "route-map ACME-import permit 10\n"
      "router bgp 65000\n"
      " neighbor 10.0.0.2 route-map ACME-import in\n");
  EXPECT_EQ(out.find("ACME"), std::string::npos);
  // The two references must agree: find the hash token on the route-map
  // line and demand it also appears on the neighbor line.
  std::string token;
  for (const auto word : util::SplitWords(out)) {
    if (word.size() == 11 && word[0] == 'h') {
      token = std::string(word);
      break;
    }
  }
  ASSERT_FALSE(token.empty());
  EXPECT_NE(out.find("route-map " + token + " permit"), std::string::npos);
  EXPECT_NE(out.find("route-map " + token + " in"), std::string::npos);
}

TEST(Anonymizer, HostnameAlwaysHashed) {
  const std::string out = AnonymizeText("hostname cr1.lax.foo.com\n");
  EXPECT_EQ(out.find("foo"), std::string::npos);
  EXPECT_EQ(out.find("lax"), std::string::npos);
  EXPECT_NE(out.find("hostname h"), std::string::npos);
}

TEST(Anonymizer, DeterministicForSalt) {
  const std::string text =
      "hostname r1.acme.com\nrouter bgp 701\n neighbor 4.4.4.4 remote-as 1239\n";
  EXPECT_EQ(AnonymizeText(text, "s1"), AnonymizeText(text, "s1"));
  EXPECT_NE(AnonymizeText(text, "s1"), AnonymizeText(text, "s2"));
}

// --- IP rules ---

TEST(Anonymizer, NetmasksUntouchedAddressesMapped) {
  const std::string out = AnonymizeText(
      "interface Ethernet0\n ip address 12.34.56.78 255.255.255.0\n");
  EXPECT_NE(out.find("255.255.255.0"), std::string::npos);
  EXPECT_EQ(out.find("12.34.56.78"), std::string::npos);
}

TEST(Anonymizer, WildcardMasksUntouched) {
  const std::string out =
      AnonymizeText("access-list 10 permit ip 12.34.0.0 0.0.255.255\n");
  EXPECT_NE(out.find("0.0.255.255"), std::string::npos);
  EXPECT_EQ(out.find("12.34.0.0"), std::string::npos);
}

TEST(Anonymizer, CidrPrefixMapped) {
  const std::string out = AnonymizeText("ip route 12.34.0.0/16 Null0\n");
  EXPECT_EQ(out.find("12.34.0.0/16"), std::string::npos);
  EXPECT_NE(out.find("/16"), std::string::npos);
}

TEST(Anonymizer, SubnetContainsPreserved) {
  Anonymizer anonymizer = MakeAnonymizer();
  const auto out = anonymizer.AnonymizeNetwork({File(
      "interface Ethernet0\n ip address 1.1.1.10 255.255.255.0\n"
      "router rip\n network 1.0.0.0\n")});
  // Re-extract the two addresses and check containment survived.
  std::optional<net::Ipv4Address> iface, network;
  for (const std::string_view line : out.front().lines()) {
    const auto words = util::SplitWords(line);
    for (std::size_t i = 0; i + 1 < words.size(); ++i) {
      if (words[i] == "address") iface = net::Ipv4Address::Parse(words[i + 1]);
      if (words[i] == "network") {
        network = net::Ipv4Address::Parse(words[i + 1]);
      }
    }
  }
  ASSERT_TRUE(iface.has_value());
  ASSERT_TRUE(network.has_value());
  EXPECT_TRUE(net::Prefix(*network, 8).Contains(*iface));
  EXPECT_EQ(net::TrailingZeroBits(*network), 24);  // still classful A base
}

// --- ASN rules ---

TEST(Anonymizer, RouterBgpAsnMapped) {
  Anonymizer anonymizer = MakeAnonymizer();
  const auto out =
      anonymizer.AnonymizeNetwork({File("router bgp 1111\n")});
  const std::string expected =
      "router bgp " + std::to_string(anonymizer.asn_map().Map(1111)) + "\n";
  EXPECT_EQ(out.front().ToText(), expected);
}

TEST(Anonymizer, PrivateBgpAsnUntouched) {
  EXPECT_EQ(AnonymizeText("router bgp 65001\n"), "router bgp 65001\n");
}

TEST(Anonymizer, RemoteAsConsistentWithRouterBgp) {
  Anonymizer anonymizer = MakeAnonymizer();
  const auto out = anonymizer.AnonymizeNetwork({File(
      "router bgp 701\n neighbor 9.9.9.9 remote-as 701\n")});
  const std::string mapped = std::to_string(anonymizer.asn_map().Map(701));
  const std::string text = out.front().ToText();
  EXPECT_NE(text.find("router bgp " + mapped), std::string::npos);
  EXPECT_NE(text.find("remote-as " + mapped), std::string::npos);
}

TEST(Anonymizer, ConfederationPeersAllMapped) {
  Anonymizer anonymizer = MakeAnonymizer();
  const auto out = anonymizer.AnonymizeNetwork({File(
      "router bgp 100\n bgp confederation identifier 200\n"
      " bgp confederation peers 300 400 65100\n")});
  const std::string text = out.front().ToText();
  EXPECT_NE(text.find(std::to_string(anonymizer.asn_map().Map(200))),
            std::string::npos);
  EXPECT_NE(text.find(std::to_string(anonymizer.asn_map().Map(300))),
            std::string::npos);
  EXPECT_NE(text.find("65100"), std::string::npos);  // private untouched
}

TEST(Anonymizer, AsPathPrependMapped) {
  Anonymizer anonymizer = MakeAnonymizer();
  const auto out = anonymizer.AnonymizeNetwork({File(
      "route-map OUT permit 10\n set as-path prepend 701 701\n")});
  const std::string mapped = std::to_string(anonymizer.asn_map().Map(701));
  EXPECT_NE(out.front().ToText().find("prepend " + mapped + " " + mapped),
            std::string::npos);
}

TEST(Anonymizer, AsPathRegexRewritten) {
  Anonymizer anonymizer = MakeAnonymizer();
  const auto out = anonymizer.AnonymizeNetwork({File(
      "ip as-path access-list 50 permit (_1239_|_70[2-5]_)\n")});
  const std::string text = out.front().ToText();
  EXPECT_EQ(text.find("1239"), std::string::npos);
  EXPECT_EQ(text.find("70[2-5]"), std::string::npos);
  // All five mapped ASNs appear.
  for (std::uint32_t asn : {1239u, 702u, 703u, 704u, 705u}) {
    EXPECT_NE(text.find(std::to_string(anonymizer.asn_map().Map(asn))),
              std::string::npos);
  }
}

TEST(Anonymizer, PrivateOnlyAsPathRegexUntouched) {
  const std::string out =
      AnonymizeText("ip as-path access-list 10 permit _6451[2-5]_\n");
  EXPECT_NE(out.find("_6451[2-5]_"), std::string::npos);
}

TEST(Anonymizer, SetCommunityLiteralMapped) {
  Anonymizer anonymizer = MakeAnonymizer();
  const auto out = anonymizer.AnonymizeNetwork({File(
      "route-map X permit 10\n set community 701:7100 additive\n")});
  const std::string text = out.front().ToText();
  EXPECT_EQ(text.find("701:7100"), std::string::npos);
  EXPECT_NE(text.find("additive"), std::string::npos);
  const std::string expected =
      std::to_string(anonymizer.asn_map().Map(701)) + ":" +
      std::to_string(anonymizer.community_values().Map(7100));
  EXPECT_NE(text.find(expected), std::string::npos);
}

TEST(Anonymizer, CommunityListLiteralsAndKeywords) {
  const std::string out = AnonymizeText(
      "ip community-list 5 permit 701:100 no-export\n");
  EXPECT_EQ(out.find("701:100"), std::string::npos);
  EXPECT_NE(out.find("no-export"), std::string::npos);
}

TEST(Anonymizer, CommunityRegexRewritten) {
  const std::string out =
      AnonymizeText("ip community-list 100 permit 701:7[1-5]..\n");
  EXPECT_EQ(out.find("701:"), std::string::npos);
  EXPECT_NE(out.find(":"), std::string::npos);
}

TEST(Anonymizer, MatchClauseNumbersUntouched) {
  const std::string out = AnonymizeText(
      "route-map X deny 10\n match as-path 50\n match community 100\n");
  EXPECT_NE(out.find("match as-path 50"), std::string::npos);
  EXPECT_NE(out.find("match community 100"), std::string::npos);
}

// --- misc rules ---

TEST(Anonymizer, SnmpCommunityHashed) {
  const std::string out = AnonymizeText("snmp-server community s3cr3t RO\n");
  EXPECT_EQ(out.find("s3cr3t"), std::string::npos);
  EXPECT_NE(out.find("RO"), std::string::npos);
}

TEST(Anonymizer, SnmpLocationStripped) {
  const std::string out =
      AnonymizeText("snmp-server location acme hq floor 3\n");
  EXPECT_EQ(out.find("acme"), std::string::npos);
  EXPECT_EQ(out.find("floor"), std::string::npos);
}

TEST(Anonymizer, SecretsHashed) {
  const std::string out = AnonymizeText(
      "enable secret 5 $1$abcd$efgh\n"
      "username admin password 7 0822455D0A16\n"
      "router bgp 65000\n neighbor 10.0.0.1 password sup3rs3cret\n");
  EXPECT_EQ(out.find("$1$abcd$efgh"), std::string::npos);
  EXPECT_EQ(out.find("0822455D0A16"), std::string::npos);
  EXPECT_EQ(out.find("sup3rs3cret"), std::string::npos);
}

TEST(Anonymizer, DialerStringPseudonymized) {
  const std::string out = AnonymizeText("dialer string 14085551234\n");
  EXPECT_EQ(out.find("14085551234"), std::string::npos);
  // Replacement is still an 11-digit dial string.
  const auto words = util::SplitWords(util::Trim(out));
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[2].size(), 11u);
  EXPECT_TRUE(util::IsAllDigits(words[2]));
}

TEST(Anonymizer, DomainNameHashed) {
  const std::string out = AnonymizeText("ip domain-name foocorp.com\n");
  EXPECT_EQ(out.find("foocorp"), std::string::npos);
}

// --- whole-network behaviours ---

TEST(Anonymizer, SpacingPreserved) {
  const std::string out =
      AnonymizeText("router bgp 65000\n neighbor 10.0.0.9 remote-as  65000\n");
  // The pre-11.x double-space artifact survives (space handling must not
  // normalize lines).
  EXPECT_NE(out.find("remote-as  65000"), std::string::npos);
}

TEST(Anonymizer, ConsistentAcrossFilesOfOneNetwork) {
  Anonymizer anonymizer = MakeAnonymizer();
  const auto out = anonymizer.AnonymizeNetwork(
      {config::ConfigFile::FromText("r1", "ip route 12.0.0.0 255.0.0.0 4.4.4.4\n"),
       config::ConfigFile::FromText("r2", "ip route 12.0.0.0 255.0.0.0 4.4.4.4\n")});
  EXPECT_EQ(out[0].ToText(), out[1].ToText());
}

TEST(Anonymizer, DisabledRuleLeaksAndDetectorCatchesIt) {
  AnonymizerOptions options;
  options.salt = "s";
  options.disabled_rules.emplace(RuleName(Rule::kRouterBgp));
  Anonymizer crippled{std::move(options)};
  const auto out = crippled.AnonymizeNetwork({File(
      "router bgp 1111\n neighbor 5.5.5.5 remote-as 1111\n")});
  // The remote-as rule still fired and recorded 1111; the router bgp line
  // kept it. The Section 6.1 grep must flag the survivor.
  const auto findings = LeakDetector::Scan(out, crippled.leak_record());
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].matched, "1111");
}

TEST(Anonymizer, NoLeaksWithFullRuleSet) {
  Anonymizer anonymizer = MakeAnonymizer();
  const auto out = anonymizer.AnonymizeNetwork({File(
      "hostname cr1.acme.com\n"
      "interface Serial0\n description to sprintlink\n"
      " ip address 12.0.0.1 255.255.255.252\n"
      "router bgp 1111\n neighbor 12.0.0.2 remote-as 1239\n"
      "ip as-path access-list 5 permit _701_\n")});
  EXPECT_TRUE(LeakDetector::Scan(out, anonymizer.leak_record()).empty());
}

TEST(Anonymizer, ReportCountsAreCoherent) {
  Anonymizer anonymizer = MakeAnonymizer();
  anonymizer.AnonymizeNetwork({File(
      "hostname r1.acme.com\n"
      "! comment\n"
      "interface Ethernet0\n ip address 12.1.1.1 255.255.255.0\n")});
  const AnonymizationReport& report = anonymizer.report();
  EXPECT_EQ(report.total_lines, 4u);
  EXPECT_GE(report.words_hashed, 1u);
  EXPECT_EQ(report.addresses_mapped, 1u);
  EXPECT_EQ(report.addresses_special, 1u);
  EXPECT_GT(report.comment_words_removed, 0u);
}

TEST(Anonymizer, LeakRecordListsEachAddressOnce) {
  // One address, plain and as CIDR, on several lines of two files: the
  // record lists it once while the report counts every occurrence. Its
  // neighbour 12.1.1.2 gets an entry of its own.
  Anonymizer anonymizer = MakeAnonymizer();
  const auto out = anonymizer.AnonymizeNetwork(
      {config::ConfigFile::FromText(
           "r1",
           "interface Ethernet0\n ip address 12.1.1.1 255.255.255.0\n"
           "ntp server 12.1.1.1\nip prefix-list p permit 12.1.1.1/32\n"),
       config::ConfigFile::FromText(
           "r2", "logging 12.1.1.1\nip prefix-list q permit 12.1.1.1/24\n"
                 "logging 12.1.1.2\n")});
  EXPECT_EQ(anonymizer.leak_record().addresses,
            (std::set<std::string>{"12.1.1.1", "12.1.1.2"}));
  EXPECT_EQ(anonymizer.report().addresses_mapped, 6u);
  EXPECT_EQ(anonymizer.report().Fires(Rule::kMapAddresses), 4u);
  EXPECT_EQ(anonymizer.report().Fires(Rule::kMapPrefixes), 2u);
  // Every mapped occurrence counts as one trie cache hit, whether the
  // trie or the engine's own memo served it; the preload walked the trie
  // once per distinct address.
  const ipanon::IpAnonymizer::Stats stats = anonymizer.ip_anonymizer().stats();
  EXPECT_EQ(stats.cache_hits, 6u);
  EXPECT_EQ(stats.preloaded, 2u);
  EXPECT_EQ(stats.cache_misses, stats.preloaded);
  const std::string image =
      anonymizer.ip_anonymizer().Map(*net::Ipv4Address::Parse("12.1.1.1"))
          .ToString();
  EXPECT_NE(out[0].ToText().find("ntp server " + image + "\n"),
            std::string::npos);
  EXPECT_NE(out[0].ToText().find("permit " + image + "/32\n"),
            std::string::npos);
  EXPECT_NE(out[1].ToText().find("permit " + image + "/24\n"),
            std::string::npos);
}

TEST(Anonymizer, OnDemandAddressesEnterTheTrieInFirstSightOrder) {
  // With rule I7 disabled nothing is preloaded: an address enters the
  // trie when the engine first maps it. Addresses repeat within and
  // across the files, and two first appear in the second file; each
  // must map as a fresh trie fed the first occurrences in order maps it.
  AnonymizerOptions options;
  options.salt = "test-salt";
  options.disabled_rules = {"I7.subnet-preload"};
  Anonymizer anonymizer(std::move(options));
  const auto out = anonymizer.AnonymizeNetwork(
      {config::ConfigFile::FromText(
           "r1", "logging 12.1.1.9\nlogging 99.4.3.2\nlogging 12.1.1.9\n"),
       config::ConfigFile::FromText(
           "r2", "logging 99.4.3.2\nlogging 12.1.1.1\nlogging 12.1.1.9\n"
                 "logging 99.4.3.1\nlogging 12.1.1.1\n")});
  EXPECT_EQ(anonymizer.ip_anonymizer().stats().preloaded, 0u);

  const std::vector<std::string> first_sights = {"12.1.1.9", "99.4.3.2",
                                                 "12.1.1.1", "99.4.3.1"};
  const auto images = [&](const std::vector<std::string>& order) {
    ipanon::IpAnonymizer trie("test-salt");
    std::map<std::string, std::string> image;
    for (const std::string& address : order) {
      image[address] = trie.Map(*net::Ipv4Address::Parse(address)).ToString();
    }
    return image;
  };
  std::map<std::string, std::string> image = images(first_sights);
  // The data tells orders apart: sorted insertion maps differently.
  ASSERT_NE(image, images({"12.1.1.1", "12.1.1.9", "99.4.3.1", "99.4.3.2"}));
  EXPECT_EQ(out[0].ToText(), "logging " + image["12.1.1.9"] + "\nlogging " +
                                 image["99.4.3.2"] + "\nlogging " +
                                 image["12.1.1.9"] + "\n");
  EXPECT_EQ(out[1].ToText(), "logging " + image["99.4.3.2"] + "\nlogging " +
                                 image["12.1.1.1"] + "\nlogging " +
                                 image["12.1.1.9"] + "\nlogging " +
                                 image["99.4.3.1"] + "\nlogging " +
                                 image["12.1.1.1"] + "\n");
}

TEST(Anonymizer, EnginesOverOneStateKeepTheirOwnAddressRecords) {
  // Two engines over one session's NetworkState, as two daemon requests
  // of one tenant are: each lists every address it mapped, including one
  // the other engine mapped first, and both render the same image.
  ServiceOptions options;
  options.base.salt = "test-salt";
  const ServiceContext context(std::move(options));
  const auto session = context.CreateSession();
  const auto first = context.MakeEngine(ConfigDialect::kIos, *session);
  const auto second = context.MakeEngine(ConfigDialect::kIos, *session);
  const std::string first_out =
      first->AnonymizeFile(File("logging 12.1.1.1\nlogging 12.1.1.5\n"))
          .ToText();
  const std::string second_out =
      second->AnonymizeFile(File("logging 12.1.1.7\nlogging 12.1.1.1\n"))
          .ToText();
  EXPECT_EQ(first->leak_record().addresses,
            (std::set<std::string>{"12.1.1.1", "12.1.1.5"}));
  EXPECT_EQ(second->leak_record().addresses,
            (std::set<std::string>{"12.1.1.1", "12.1.1.7"}));
  const std::string image =
      session->state()->ip.Map(*net::Ipv4Address::Parse("12.1.1.1"))
          .ToString();
  EXPECT_EQ(first_out.substr(0, first_out.find('\n')), "logging " + image);
  EXPECT_EQ(second_out.substr(second_out.find('\n') + 1),
            "logging " + image + "\n");
}

TEST(Anonymizer, AsnAuditRecordsMemoServedRewrites) {
  // Two files of one network repeat an as-path regexp. The second rewrite
  // is served from the rewriter's memo and must still record the pattern's
  // public ASNs under rule A12.
  ServiceOptions options;
  options.base.salt = "test-salt";
  const ServiceContext context(std::move(options));
  const auto session = context.CreateSession();
  const auto engine = context.MakeEngine(ConfigDialect::kIos, *session);
  const std::string line = "ip as-path access-list 1 permit (_701_|_1239_)\n";
  engine->AnonymizeNetwork({config::ConfigFile::FromText("r1", line),
                            config::ConfigFile::FromText("r2", line)});
  EXPECT_EQ(engine->report().Fires(Rule::kAsnAudit), 4u);
  EXPECT_GE(session->state()->aspath_rewriter.memo().hits(), 1u);
  EXPECT_EQ(engine->leak_record().public_asns,
            (std::set<std::string>{"1239", "701"}));
}

// --- leak detector specifics ---

TEST(LeakDetector, WordBoundaryMatching) {
  LeakRecord record;
  record.public_asns.insert("701");
  const config::ConfigFile clean =
      config::ConfigFile::FromText("r", "router bgp 7701\nip route 1.7.0.1\n");
  EXPECT_TRUE(LeakDetector::Scan({clean}, record).empty());
  const config::ConfigFile dirty =
      config::ConfigFile::FromText("r", "set community 701:100\n");
  EXPECT_EQ(LeakDetector::Scan({dirty}, record).size(), 1u);
}

TEST(LeakDetector, AddressMatchingRespectsDots) {
  LeakRecord record;
  record.addresses.insert("1.2.3.4");
  const config::ConfigFile clean =
      config::ConfigFile::FromText("r", "ip route 11.2.3.40 255.0.0.0\n");
  EXPECT_TRUE(LeakDetector::Scan({clean}, record).empty());
  const config::ConfigFile dirty =
      config::ConfigFile::FromText("r", "ping 1.2.3.4 repeat 5\n");
  EXPECT_EQ(LeakDetector::Scan({dirty}, record).size(), 1u);
}

TEST(LeakDetector, CaseInsensitiveWordMatch) {
  LeakRecord record;
  record.hashed_words.insert("AcmeCorp");
  const config::ConfigFile dirty =
      config::ConfigFile::FromText("r", "description link for ACMECORP\n");
  EXPECT_EQ(LeakDetector::Scan({dirty}, record).size(), 1u);
}

TEST(LeakDetector, GenuityAs1FalsePositives) {
  // The paper's caveat: AS 1 (Genuity) matches all over the place. The
  // detector is expected to over-report here — that is what the human
  // iteration loop is for.
  LeakRecord record;
  record.public_asns.insert("1");
  const config::ConfigFile file = config::ConfigFile::FromText(
      "r", "router ospf 1\nroute-map X permit 1\n");
  EXPECT_EQ(LeakDetector::Scan({file}, record).size(), 2u);
}

}  // namespace
}  // namespace confanon::core
