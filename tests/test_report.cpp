#include "core/report.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/anonymizer.h"
#include "core/rules.h"

namespace confanon::core {
namespace {

TEST(RuleTable, HoldsEveryRuleOfBothDialectsOnce) {
  std::size_t ios = 0;
  std::size_t junos = 0;
  std::set<std::string_view> names;
  for (const RuleInfo& rule : kRuleTable) {
    (rule.dialect == RuleDialect::kIos ? ios : junos) += 1;
    EXPECT_TRUE(names.insert(rule.name).second) << rule.name;
    EXPECT_EQ(rule.name.starts_with("J."), rule.dialect == RuleDialect::kJunos)
        << rule.name;
  }
  // Paper Section 4.2's 28 rules, and the JunOS pack's 13.
  EXPECT_EQ(ios, 28u);
  EXPECT_EQ(junos, 13u);
  EXPECT_EQ(kRuleCount, 41u);
}

TEST(RuleTable, NamesAndIdsRoundTrip) {
  for (const RuleInfo& rule : kRuleTable) {
    EXPECT_EQ(RuleName(rule.id), rule.name);
    EXPECT_EQ(RuleIndex(rule.id), static_cast<std::size_t>(&rule - kRuleTable));
    ASSERT_TRUE(RuleFromName(rule.name).has_value()) << rule.name;
    EXPECT_EQ(*RuleFromName(rule.name), rule.id);
  }
  EXPECT_EQ(RuleName(Rule::kRouterBgp), "A1.router-bgp");
  EXPECT_EQ(RuleName(Rule::kJunosPasslistHash), "J.passlist-hash");
  EXPECT_FALSE(RuleFromName("T1.segmnet-words").has_value());
  EXPECT_FALSE(RuleFromName("").has_value());
}

TEST(RuleTable, RuleSetFromNamesSkipsUnknownNames) {
  const RuleSet set = RuleSetFromNames(
      {"A1.router-bgp", "J.passlist-hash", "M9.no-such-rule"});
  EXPECT_EQ(set.count(), 2u);
  EXPECT_TRUE(set[RuleIndex(Rule::kRouterBgp)]);
  EXPECT_TRUE(set[RuleIndex(Rule::kJunosPasslistHash)]);
}

TEST(Report, FireAccumulates) {
  AnonymizationReport report;
  report.Fire(Rule::kRouterBgp);
  report.Fire(Rule::kRouterBgp, 4);
  EXPECT_EQ(report.Fires(Rule::kRouterBgp), 5u);
  EXPECT_EQ(report.Fires(Rule::kSetCommunity), 0u);
}

TEST(Report, CommentWordFraction) {
  AnonymizationReport report;
  EXPECT_DOUBLE_EQ(report.CommentWordFraction(), 0.0);  // no words
  report.total_words = 200;
  report.comment_words_removed = 3;
  EXPECT_DOUBLE_EQ(report.CommentWordFraction(), 0.015);
}

TEST(Report, MergeAddsEverything) {
  AnonymizationReport a, b;
  a.total_lines = 10;
  a.words_hashed = 2;
  a.asns_mapped = 1;
  a.Fire(Rule::kPasslistHash, 2);
  b.total_lines = 5;
  b.words_hashed = 3;
  b.addresses_mapped = 7;
  b.Fire(Rule::kPasslistHash);
  b.Fire(Rule::kMapAddresses, 7);
  a.Merge(b);
  EXPECT_EQ(a.total_lines, 15u);
  EXPECT_EQ(a.words_hashed, 5u);
  EXPECT_EQ(a.asns_mapped, 1u);
  EXPECT_EQ(a.addresses_mapped, 7u);
  EXPECT_EQ(a.Fires(Rule::kPasslistHash), 3u);
  EXPECT_EQ(a.Fires(Rule::kMapAddresses), 7u);
}

TEST(Report, ToStringMentionsKeyFields) {
  AnonymizationReport report;
  report.total_lines = 42;
  report.words_hashed = 7;
  report.Fire(Rule::kAsPathRegex);
  const std::string text = report.ToString();
  EXPECT_NE(text.find("lines=42"), std::string::npos);
  EXPECT_NE(text.find("words_hashed=7"), std::string::npos);
  EXPECT_NE(text.find("  rule A6.as-path-regex: 1\n"), std::string::npos);
}

AnonymizationReport FullReport() {
  AnonymizationReport report;
  report.total_lines = 1;
  report.total_words = 2;
  report.comment_words_removed = 3;
  report.words_hashed = 4;
  report.words_passed = 5;
  report.addresses_mapped = 6;
  report.addresses_special = 7;
  report.asns_mapped = 8;
  report.communities_mapped = 9;
  report.aspath_regexps_rewritten = 10;
  report.community_regexps_rewritten = 11;
  report.Fire(Rule::kRouterBgp, 12);
  return report;
}

TEST(Report, MergeCoversEveryScalarField) {
  AnonymizationReport a = FullReport();
  a.Merge(FullReport());
  EXPECT_EQ(a.total_lines, 2u);
  EXPECT_EQ(a.total_words, 4u);
  EXPECT_EQ(a.comment_words_removed, 6u);
  EXPECT_EQ(a.words_hashed, 8u);
  EXPECT_EQ(a.words_passed, 10u);
  EXPECT_EQ(a.addresses_mapped, 12u);
  EXPECT_EQ(a.addresses_special, 14u);
  EXPECT_EQ(a.asns_mapped, 16u);
  EXPECT_EQ(a.communities_mapped, 18u);
  EXPECT_EQ(a.aspath_regexps_rewritten, 20u);
  EXPECT_EQ(a.community_regexps_rewritten, 22u);
  EXPECT_EQ(a.Fires(Rule::kRouterBgp), 24u);
}

TEST(Report, MergeUnionsDisjointRules) {
  AnonymizationReport a, b;
  a.Fire(Rule::kStripBangComments, 2);
  b.Fire(Rule::kJunosMapAddresses, 5);
  a.Merge(b);
  EXPECT_EQ(a.Fires(Rule::kStripBangComments), 2u);
  EXPECT_EQ(a.Fires(Rule::kJunosMapAddresses), 5u);
  // Both dialects' rules list together, in name order.
  EXPECT_NE(a.ToString().find("  rule C1.strip-bang-comments: 2\n"
                              "  rule J.map-addresses: 5\n"),
            std::string::npos);
}

TEST(Report, MergeWithEmptyIsIdentity) {
  AnonymizationReport a = FullReport();
  a.Merge(AnonymizationReport{});
  const AnonymizationReport reference = FullReport();
  EXPECT_EQ(a.total_lines, reference.total_lines);
  EXPECT_EQ(a.total_words, reference.total_words);
  EXPECT_EQ(a.community_regexps_rewritten,
            reference.community_regexps_rewritten);
  EXPECT_EQ(a.fires, reference.fires);

  AnonymizationReport empty;
  empty.Merge(FullReport());
  EXPECT_EQ(empty.words_passed, reference.words_passed);
  EXPECT_EQ(empty.fires, reference.fires);
}

TEST(Report, SelfMergeDoubles) {
  AnonymizationReport a = FullReport();
  a.Merge(a);
  EXPECT_EQ(a.total_lines, 2u);
  EXPECT_EQ(a.community_regexps_rewritten, 22u);
  EXPECT_EQ(a.Fires(Rule::kRouterBgp), 24u);
}

TEST(Report, ToStringFormatsFractionWithTwoDecimals) {
  AnonymizationReport report;
  report.total_words = 300;
  report.comment_words_removed = 100;  // 33.333...%
  EXPECT_NE(report.ToString().find("(33.33%)"), std::string::npos);
}

TEST(Report, ToStringHandlesZeroWords) {
  const std::string text = AnonymizationReport{}.ToString();
  EXPECT_NE(text.find("(n/a)"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(Report, ToJsonCarriesFieldsAndRules) {
  AnonymizationReport report = FullReport();
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"total_lines\":1"), std::string::npos);
  EXPECT_NE(json.find("\"community_regexps_rewritten\":11"),
            std::string::npos);
  EXPECT_NE(json.find("\"comment_word_fraction\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"rule_fires\":{\"A1.router-bgp\":12}"),
            std::string::npos);
}

// A rule with no fires is not listed, and a fire of zero is no fire: an
// IOS corpus that holds no IPv4 address preloads nothing, so rule I7
// does not appear in its report (nor, by the delta sync, as a counter).
TEST(Report, ZeroFiresAreNotListed) {
  AnonymizationReport report;
  report.Fire(Rule::kSubnetPreload, 0);
  EXPECT_EQ(report.ToString().find("rule"), std::string::npos);
  EXPECT_NE(report.ToJson().find("\"rule_fires\":{}"), std::string::npos);

  AnonymizerOptions options;
  options.salt = "s";
  Anonymizer anonymizer(std::move(options));
  anonymizer.AnonymizeNetwork(
      {config::ConfigFile::FromText("r", "hostname core\n")});
  EXPECT_EQ(anonymizer.report().Fires(Rule::kSubnetPreload), 0u);
  EXPECT_EQ(anonymizer.report().ToString().find("I7.subnet-preload"),
            std::string::npos);
  EXPECT_EQ(anonymizer.report().ToJson().find("I7.subnet-preload"),
            std::string::npos);
}

}  // namespace
}  // namespace confanon::core
