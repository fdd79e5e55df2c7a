#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/anonymizer.h"
#include "core/network_state.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "junos/anonymizer.h"
#include "junos/tokenizer.h"
#include "junos/writer.h"
#include "util/rng.h"

namespace confanon::junos {
namespace {

// --- tokenizer ---

TEST(JunosTokenizer, SplitsPunctuation) {
  const JunosLine line = TokenizeJunosLine("    peer-as 701;");
  ASSERT_EQ(line.tokens.size(), 3u);
  EXPECT_EQ(line.tokens[0].text, "peer-as");
  EXPECT_EQ(line.tokens[1].text, "701");
  EXPECT_EQ(line.tokens[2].kind, Token::Kind::kPunct);
  EXPECT_EQ(line.tokens[2].text, ";");
}

TEST(JunosTokenizer, BracesAndBrackets) {
  const JunosLine line =
      TokenizeJunosLine("community c members [ 701:120 702:9 ];");
  std::vector<std::string> punct;
  for (const Token& token : line.tokens) {
    if (token.kind == Token::Kind::kPunct) punct.emplace_back(token.text);
  }
  EXPECT_EQ(punct, (std::vector<std::string>{"[", "]", ";"}));
}

TEST(JunosTokenizer, QuotedStrings) {
  const JunosLine line =
      TokenizeJunosLine("as-path foo \"(_701_|_1239_)\";");
  ASSERT_EQ(line.tokens.size(), 4u);
  EXPECT_EQ(line.tokens[2].kind, Token::Kind::kString);
  EXPECT_EQ(line.tokens[2].text, "\"(_701_|_1239_)\"");
  const auto words = WordsOf(line);
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[2], "(_701_|_1239_)");  // unquoted
}

TEST(JunosTokenizer, HashComment) {
  const JunosLine line = TokenizeJunosLine("neighbor 1.2.3.4; # to acme");
  EXPECT_EQ(line.tokens.back().kind, Token::Kind::kComment);
  EXPECT_EQ(line.tokens.back().text, "# to acme");
}

TEST(JunosTokenizer, RenderRoundTripExact) {
  for (const char* text :
       {"", "    }", "a { b; }", "x \"quoted str\" ;  # tail",
        "  address 1.2.3.4/30;", "\tmessage \"two  spaces\";",
        "unterminated \"quote"}) {
    EXPECT_EQ(TokenizeJunosLine(text).Render(), text) << '"' << text << '"';
  }
}

TEST(JunosTokenizer, RandomRoundTripProperty) {
  util::Rng rng(9157);
  const char alphabet[] = "ab1{};[]\"# ./";
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const int length = static_cast<int>(rng.Below(28));
    for (int i = 0; i < length; ++i) {
      text += alphabet[static_cast<std::size_t>(rng.Below(13))];
    }
    EXPECT_EQ(TokenizeJunosLine(text).Render(), text) << text;
  }
}

// --- interface name mapping ---

TEST(JunosWriter, InterfaceNames) {
  EXPECT_EQ(JunosInterfaceName("Serial1/0"), "so-1/0");
  EXPECT_EQ(JunosInterfaceName("Serial1/0.5"), "so-1/0.5");
  EXPECT_EQ(JunosInterfaceName("FastEthernet0/1"), "fe-0/1");
  EXPECT_EQ(JunosInterfaceName("GigabitEthernet0/2"), "ge-0/2");
  EXPECT_EQ(JunosInterfaceName("Ethernet3"), "ge-0/3");
  EXPECT_EQ(JunosInterfaceName("Loopback0"), "lo0");
}

// --- writer ---

gen::NetworkSpec SampleNetwork() {
  gen::GeneratorParams params;
  params.seed = 77;
  params.router_count = 12;
  params.p_community_regex = 1.0;
  params.p_alternation_regex = 1.0;
  return gen::GenerateNetwork(params, 0);
}

TEST(JunosWriter, BalancedBraces) {
  const auto network = SampleNetwork();
  for (const auto& file : WriteJunosNetworkConfigs(network)) {
    int depth = 0;
    for (const std::string_view raw : file.lines()) {
      for (char c : raw) {
        if (c == '{') ++depth;
        if (c == '}') --depth;
        ASSERT_GE(depth, 0) << file.name() << ": " << raw;
      }
    }
    EXPECT_EQ(depth, 0) << file.name();
  }
}

TEST(JunosWriter, ContainsCoreStatements) {
  const auto network = SampleNetwork();
  const auto configs = WriteJunosNetworkConfigs(network);
  bool saw_bgp = false, saw_policy = false, saw_address = false;
  for (const auto& file : configs) {
    const std::string text = file.ToText();
    saw_bgp |= text.find("peer-as ") != std::string::npos;
    saw_policy |= text.find("policy-statement ") != std::string::npos;
    saw_address |= text.find("family inet") != std::string::npos;
  }
  EXPECT_TRUE(saw_bgp);
  EXPECT_TRUE(saw_policy);
  EXPECT_TRUE(saw_address);
}

// --- anonymizer ---

config::ConfigFile File(std::string_view text) {
  return config::ConfigFile::FromText("router", text);
}

std::string Anonymize(std::string_view text) {
  JunosAnonymizerOptions options;
  options.salt = "junos-salt";
  JunosAnonymizer anonymizer(std::move(options));
  return anonymizer.AnonymizeNetwork({File(text)}).front().ToText();
}

TEST(JunosAnonymizer, HostNameHashed) {
  const std::string out =
      Anonymize("system {\n    host-name cr1.lax.foo.com;\n}\n");
  EXPECT_EQ(out.find("foo"), std::string::npos);
  EXPECT_NE(out.find("host-name h"), std::string::npos);
  EXPECT_NE(out.find(";"), std::string::npos);
}

TEST(JunosAnonymizer, BlockCommentsStripped) {
  const std::string out = Anonymize("/* acme core router lax */\nsystem {\n}\n");
  EXPECT_EQ(out.find("acme"), std::string::npos);
  EXPECT_EQ(out.find("lax"), std::string::npos);
}

TEST(JunosAnonymizer, MultiLineBlockComment) {
  const std::string out = Anonymize(
      "/* contact noc@acme.com\n   phone 555 0100 */\nsystem {\n}\n");
  EXPECT_EQ(out.find("acme"), std::string::npos);
  EXPECT_EQ(out.find("555"), std::string::npos);
  EXPECT_NE(out.find("system"), std::string::npos);
}

TEST(JunosAnonymizer, HashCommentStripped) {
  const std::string out =
      Anonymize("neighbor 4.4.4.4; # session to sprintlink\n");
  EXPECT_EQ(out.find("sprintlink"), std::string::npos);
  EXPECT_EQ(out.find("#"), std::string::npos);
}

TEST(JunosAnonymizer, DescriptionStringStripped) {
  const std::string out =
      Anonymize("description \"Foo Corp LAX office uplink\";\n");
  EXPECT_EQ(out.find("Foo"), std::string::npos);
  EXPECT_NE(out.find("description \"\""), std::string::npos);
}

TEST(JunosAnonymizer, PeerAsMapped) {
  JunosAnonymizerOptions options;
  options.salt = "junos-salt";
  JunosAnonymizer anonymizer(std::move(options));
  const auto out =
      anonymizer.AnonymizeNetwork({File("peer-as 701;\n")});
  EXPECT_EQ(out.front().ToText(),
            "peer-as " + std::to_string(anonymizer.asn_map().Map(701)) +
                ";\n");
}

TEST(JunosAnonymizer, PrivateAsnUntouched) {
  EXPECT_EQ(Anonymize("autonomous-system 65001;\n"),
            "autonomous-system 65001;\n");
}

TEST(JunosAnonymizer, CidrAddressMappedLengthKept) {
  const std::string out =
      Anonymize("address 12.34.56.1/30;\n");
  EXPECT_EQ(out.find("12.34.56.1"), std::string::npos);
  EXPECT_NE(out.find("/30;"), std::string::npos);
}

TEST(JunosAnonymizer, LeakRecordListsAsnsOfMemoServedRewrites) {
  // An IOS engine rewrites an as-path regexp first. The JunOS engine over
  // the same NetworkState is served that rewrite from the shared memo and
  // must still list the pattern's public ASNs in its own record.
  const auto state = std::make_shared<core::NetworkState>("test-salt");
  core::AnonymizerOptions ios_options;
  ios_options.salt = "test-salt";
  core::Anonymizer ios(std::move(ios_options), state);
  ios.AnonymizeFile(config::ConfigFile::FromText(
      "r1", "ip as-path access-list 1 permit (_701_|_1239_)\n"));
  JunosAnonymizerOptions options;
  options.salt = "test-salt";
  JunosAnonymizer junos(std::move(options), state);
  junos.AnonymizeFile(
      config::ConfigFile::FromText("r2", "as-path a \"(_701_|_1239_)\";\n"));
  EXPECT_GE(state->aspath_rewriter.memo().hits(), 1u);
  EXPECT_EQ(junos.leak_record().public_asns,
            (std::set<std::string>{"1239", "701"}));
}

TEST(JunosAnonymizer, LeakRecordListsEachAddressOnce) {
  // One address, plain and as CIDR, on several lines of two files: the
  // record lists it once while the report counts every occurrence. Its
  // neighbour 12.34.56.2 gets an entry of its own.
  JunosAnonymizerOptions options;
  options.salt = "junos-salt";
  JunosAnonymizer anonymizer(std::move(options));
  const auto out = anonymizer.AnonymizeNetwork(
      {config::ConfigFile::FromText(
           "r1", "address 12.34.56.1/30;\nneighbor 12.34.56.1;\n"),
       config::ConfigFile::FromText(
           "r2", "neighbor 12.34.56.1;\nroute 12.34.56.1/32 reject;\n"
                 "neighbor 12.34.56.2;\n")});
  EXPECT_EQ(anonymizer.leak_record().addresses,
            (std::set<std::string>{"12.34.56.1", "12.34.56.2"}));
  EXPECT_EQ(anonymizer.report().addresses_mapped, 5u);
  EXPECT_EQ(anonymizer.report().Fires(core::Rule::kJunosMapAddresses), 3u);
  EXPECT_EQ(anonymizer.report().Fires(core::Rule::kJunosMapPrefixes), 2u);
  // Every mapped occurrence counts as one trie cache hit, whether the
  // trie or the engine's own memo served it; the preload walked the trie
  // once per distinct address.
  const ipanon::IpAnonymizer::Stats stats = anonymizer.ip_anonymizer().stats();
  EXPECT_EQ(stats.cache_hits, 5u);
  EXPECT_EQ(stats.preloaded, 2u);
  EXPECT_EQ(stats.cache_misses, stats.preloaded);
  const std::string image =
      anonymizer.ip_anonymizer().Map(*net::Ipv4Address::Parse("12.34.56.1"))
          .ToString();
  EXPECT_EQ(out[0].ToText(), "address " + image + "/30;\nneighbor " + image +
                                 ";\n");
  const std::string neighbour =
      anonymizer.ip_anonymizer().Map(*net::Ipv4Address::Parse("12.34.56.2"))
          .ToString();
  EXPECT_EQ(out[1].ToText(), "neighbor " + image + ";\nroute " + image +
                                 "/32 reject;\nneighbor " + neighbour +
                                 ";\n");
}

TEST(JunosAnonymizer, AsPathRegexRewritten) {
  JunosAnonymizerOptions options;
  options.salt = "junos-salt";
  JunosAnonymizer anonymizer(std::move(options));
  const auto out = anonymizer.AnonymizeNetwork(
      {File("as-path peer-in \"(_1239_|_70[2-5]_)\";\n")});
  const std::string text = out.front().ToText();
  EXPECT_EQ(text.find("1239"), std::string::npos);
  for (std::uint32_t asn : {1239u, 702u, 705u}) {
    EXPECT_NE(text.find(std::to_string(anonymizer.asn_map().Map(asn))),
              std::string::npos);
  }
}

TEST(JunosAnonymizer, AsPathReferenceNotTreatedAsRegex) {
  // `from { as-path peer-in; }` carries no quoted pattern; the name is
  // hashed consistently with its definition.
  JunosAnonymizerOptions options;
  options.salt = "junos-salt";
  JunosAnonymizer anonymizer(std::move(options));
  const auto out = anonymizer.AnonymizeNetwork({File(
      "as-path acme-in \"_701_\";\nfrom {\n    as-path acme-in;\n}\n")});
  const std::string hashed = anonymizer.string_hasher().Hash("acme-in");
  const std::string text = out.front().ToText();
  EXPECT_EQ(text.find("acme-in"), std::string::npos);
  EXPECT_NE(text.find("as-path " + hashed + " \""), std::string::npos);
  EXPECT_NE(text.find("as-path " + hashed + ";"), std::string::npos);
}

TEST(JunosAnonymizer, CommunityMembersLiteralsMapped) {
  JunosAnonymizerOptions options;
  options.salt = "junos-salt";
  JunosAnonymizer anonymizer(std::move(options));
  const auto out = anonymizer.AnonymizeNetwork(
      {File("community acme-comm members [ 701:120 702:9 ];\n")});
  const std::string text = out.front().ToText();
  EXPECT_EQ(text.find("701:120"), std::string::npos);
  const std::string expected =
      std::to_string(anonymizer.asn_map().Map(701)) + ":";
  EXPECT_NE(text.find(expected), std::string::npos);
  EXPECT_NE(text.find("[ "), std::string::npos);
}

TEST(JunosAnonymizer, CommunityRegexRewritten) {
  const std::string out =
      Anonymize("community c members \"701:7[1-5]..\";\n");
  EXPECT_EQ(out.find("701:"), std::string::npos);
}

TEST(JunosAnonymizer, AsPathPrependMapped) {
  JunosAnonymizerOptions options;
  options.salt = "junos-salt";
  JunosAnonymizer anonymizer(std::move(options));
  const auto out = anonymizer.AnonymizeNetwork(
      {File("as-path-prepend \"701 701\";\n")});
  const std::string mapped = std::to_string(anonymizer.asn_map().Map(701));
  EXPECT_NE(out.front().ToText().find("\"" + mapped + " " + mapped + "\""),
            std::string::npos);
}

TEST(JunosAnonymizer, InlineMultiStatementLinesHandled) {
  // JunOS statements can share a line; context rules must not be anchored
  // to the line head.
  JunosAnonymizerOptions options;
  options.salt = "junos-salt";
  JunosAnonymizer anonymizer(std::move(options));
  const auto out = anonymizer.AnonymizeNetwork({File(
      "group ext { peer-as 701; neighbor 4.4.4.4; description \"acme\"; }\n")});
  const std::string text = out.front().ToText();
  EXPECT_EQ(text.find("peer-as 701"), std::string::npos);
  EXPECT_NE(
      text.find("peer-as " + std::to_string(anonymizer.asn_map().Map(701))),
      std::string::npos);
  EXPECT_EQ(text.find("4.4.4.4"), std::string::npos);
  EXPECT_EQ(text.find("acme"), std::string::npos);
}

TEST(JunosAnonymizer, StructurePreservedEndToEnd) {
  // Full generated network in JunOS syntax: brace structure and line
  // count survive; no company name survives; leak grep clean.
  const auto network = SampleNetwork();
  const auto pre = WriteJunosNetworkConfigs(network);
  JunosAnonymizerOptions options;
  options.salt = "junos-e2e";
  JunosAnonymizer anonymizer(std::move(options));
  const auto post = anonymizer.AnonymizeNetwork(pre);
  ASSERT_EQ(post.size(), pre.size());
  for (std::size_t i = 0; i < pre.size(); ++i) {
    EXPECT_EQ(post[i].LineCount(), pre[i].LineCount());
    int depth = 0;
    for (const std::string_view raw : post[i].lines()) {
      for (char c : raw) {
        if (c == '{') ++depth;
        if (c == '}') --depth;
      }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(post[i].ToText().find(network.name), std::string::npos);
  }
  const auto findings =
      core::LeakDetector::Scan(post, anonymizer.leak_record());
  for (const auto& finding : findings) {
    EXPECT_EQ(finding.kind, core::LeakFinding::Kind::kAsn)
        << finding.matched << " in " << finding.line;
  }
}

TEST(JunosAnonymizer, CrossLanguageConsistencyWithIos) {
  // The paper's portability claim, sharpened: the same network rendered
  // in IOS and JunOS, anonymized with the same salt, maps identifiers and
  // ASNs identically (those maps are pure functions of the salt). The IP
  // trie is a shared *data structure* — exactly why the paper contrasts
  // Minshall's scheme with Xu's stateless one — so cross-corpus address
  // consistency uses the supported mechanism: exporting one run's
  // mappings into the other.
  const auto network = SampleNetwork();
  const auto ios = gen::WriteNetworkConfigs(network);
  const auto junos_files = WriteJunosNetworkConfigs(network);

  core::AnonymizerOptions ios_options;
  ios_options.salt = "shared-salt";
  core::Anonymizer ios_anonymizer(std::move(ios_options));
  ios_anonymizer.AnonymizeNetwork(ios);

  JunosAnonymizerOptions junos_options;
  junos_options.salt = "shared-salt";
  JunosAnonymizer junos_anonymizer(std::move(junos_options));
  // Import the IOS run's IP mapping before anonymizing the JunOS corpus.
  std::stringstream mapping;
  ios_anonymizer.ip_anonymizer().ExportMappings(mapping);
  junos_anonymizer.ip_anonymizer().ImportMappings(mapping);
  junos_anonymizer.AnonymizeNetwork(junos_files);

  // ASN permutations agree (same salt).
  for (std::uint32_t asn : {701u, 1239u, network.asn}) {
    EXPECT_EQ(ios_anonymizer.asn_map().Map(asn),
              junos_anonymizer.asn_map().Map(asn));
  }
  // Hash tokens agree for shared identifiers.
  EXPECT_EQ(ios_anonymizer.string_hasher().Hash("UUNET-import"),
            junos_anonymizer.string_hasher().Hash("UUNET-import"));
  // With the imported mapping, addresses agree everywhere.
  for (const auto& router : network.routers) {
    for (const auto& iface : router.interfaces) {
      EXPECT_EQ(ios_anonymizer.ip_anonymizer().Map(iface.address),
                junos_anonymizer.ip_anonymizer().Map(iface.address));
    }
  }
}

}  // namespace
}  // namespace confanon::junos
