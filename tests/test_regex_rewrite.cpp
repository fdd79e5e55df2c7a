#include "asn/regex_rewrite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "policy_patterns.h"
#include "util/rng.h"

namespace confanon::asn {
namespace {

std::vector<std::uint32_t> Language(std::string_view pattern) {
  return TokenLanguage::Compile(pattern).Enumerate();
}

/// Brute-force oracle: the paper's scan of every 16-bit value.
std::vector<std::uint32_t> ScanLanguage(const TokenLanguage& language) {
  std::vector<std::uint32_t> accepted;
  for (std::uint32_t value = 0; value <= 65535; ++value) {
    if (language.Accepts(value)) accepted.push_back(value);
  }
  return accepted;
}

/// Checks that Enumerate() returns exactly the scan's language, or that
/// both sides reject the pattern. Returns the scanned language (nullopt
/// on a parse error).
std::optional<std::vector<std::uint32_t>> ExpectEnumerateMatchesScan(
    const std::string& pattern) {
  std::optional<std::vector<std::uint32_t>> enumerated;
  std::optional<std::vector<std::uint32_t>> scanned;
  try {
    enumerated = TokenLanguage::Compile(pattern).Enumerate();
  } catch (const regex::ParseError&) {
  }
  try {
    scanned = ScanLanguage(TokenLanguage::Compile(pattern));
  } catch (const regex::ParseError&) {
  }
  EXPECT_EQ(enumerated.has_value(), scanned.has_value()) << pattern;
  EXPECT_EQ(enumerated, scanned) << pattern;
  return scanned;
}

TEST(TokenLanguage, PaperExampleRange) {
  // Section 4.4: "70[1-3] accepts ASN 701, 702, and 703."
  EXPECT_EQ(Language("70[1-3]"),
            (std::vector<std::uint32_t>{701, 702, 703}));
}

TEST(TokenLanguage, AnchorsAndUnderscoreAcceptSameSingleton) {
  const std::vector<std::uint32_t> expected{701};
  EXPECT_EQ(Language("701"), expected);
  EXPECT_EQ(Language("^701$"), expected);
  EXPECT_EQ(Language("_701_"), expected);
  EXPECT_EQ(Language("^701"), expected);
  EXPECT_EQ(Language("701$"), expected);
}

TEST(TokenLanguage, DigitWildcard) {
  // 70.: 700-709 — a trailing wildcard digit.
  const auto language = Language("70[0-9]");
  ASSERT_EQ(language.size(), 10u);
  EXPECT_EQ(language.front(), 700u);
  EXPECT_EQ(language.back(), 709u);
  // "70." also accepts only 3-character tokens starting with 70.
  EXPECT_EQ(Language("70."), language);
}

TEST(TokenLanguage, Alternation) {
  EXPECT_EQ(Language("(_1239_|_70[2-5]_)"),
            (std::vector<std::uint32_t>{702, 703, 704, 705, 1239}));
  EXPECT_EQ(Language("(1|701)"), (std::vector<std::uint32_t>{1, 701}));
}

TEST(TokenLanguage, DotStarAcceptsEverything) {
  EXPECT_EQ(Language(".*").size(), 65536u);
  EXPECT_EQ(Language("^.*$").size(), 65536u);
}

TEST(TokenLanguage, PrivateRange) {
  EXPECT_EQ(Language("_6451[2-5]_"),
            (std::vector<std::uint32_t>{64512, 64513, 64514, 64515}));
}

TEST(TokenLanguage, EmptyLanguagePatterns) {
  // Tokens are at most 5 digits; a 7-digit literal accepts nothing.
  EXPECT_TRUE(Language("1234567").empty());
  EXPECT_TRUE(Language("70000").empty());  // above 65535
}

TEST(TokenLanguage, AcceptsAgreesWithEnumerate) {
  const TokenLanguage language = TokenLanguage::Compile("12[0-9]{2}");
  const auto members = language.Enumerate();
  EXPECT_EQ(members.size(), 100u);  // 1200-1299
  EXPECT_TRUE(language.Accepts(1234));
  EXPECT_FALSE(language.Accepts(123));
  EXPECT_FALSE(language.Accepts(13000));
}

TEST(TokenLanguage, EnumerateMatchesScanOnCorpusPatterns) {
  // The committed goldens hold at least these as-path regexps.
  const std::set<std::string> data = test_patterns::DataPatterns();
  for (const char* expected : {"_701_", "(_1239_|_70[2-5]_)", "26741"}) {
    EXPECT_TRUE(data.contains(expected)) << expected;
  }
  for (const std::string& pattern : test_patterns::CorpusPatterns()) {
    ExpectEnumerateMatchesScan(pattern);
  }
}

TEST(TokenLanguage, EnumerateMatchesScanOnEdgeCases) {
  for (const char* pattern :
       {"0", "^0$", "00", "^0*1$", "65535", "6553[5-9]", "65536", ".*", "^$",
        "_", "[0-9]*", "1234567"}) {
    ExpectEnumerateMatchesScan(pattern);
  }
}

TEST(TokenLanguage, EnumerateMatchesScanOnRandomPatterns) {
  util::Rng rng(20041025);
  std::size_t parse_errors = 0;
  std::size_t proper_subsets = 0;  // neither empty nor the whole space
  for (int i = 0; i < 320; ++i) {
    const auto scanned = ExpectEnumerateMatchesScan(
        test_patterns::RandomPattern(rng, 2));
    if (!scanned) {
      ++parse_errors;
    } else if (!scanned->empty() && scanned->size() < 65536) {
      ++proper_subsets;
    }
  }
  // The generator exercises both the error path and non-trivial
  // languages, not only empty or full ones.
  EXPECT_GT(parse_errors, 0u);
  EXPECT_GT(proper_subsets, 150u);
}

TEST(RenderLanguage, SingleValueBare) {
  EXPECT_EQ(RenderLanguage({701}, RewriteForm::kAlternation), "701");
  EXPECT_EQ(RenderLanguage({701}, RewriteForm::kMinimizedDfa), "701");
}

TEST(RenderLanguage, AlternationForm) {
  EXPECT_EQ(RenderLanguage({13, 701, 1239}, RewriteForm::kAlternation),
            "(13|701|1239)");
}

TEST(RenderLanguage, MinimizedFormAcceptsSameLanguage) {
  const std::vector<std::uint32_t> values = {700, 701, 702, 703, 704,
                                             705, 706, 707, 708, 709};
  const std::string pattern =
      RenderLanguage(values, RewriteForm::kMinimizedDfa);
  EXPECT_EQ(Language(pattern), values);
}

TEST(FindTopLevelColon, Basics) {
  EXPECT_EQ(FindTopLevelColon("701:120"), 3u);
  EXPECT_EQ(FindTopLevelColon("701"), std::string_view::npos);
  EXPECT_EQ(FindTopLevelColon("[:]x"), std::string_view::npos);
  EXPECT_EQ(FindTopLevelColon("(a:b)"), std::string_view::npos);
  EXPECT_EQ(FindTopLevelColon("\\:x:y"), 3u);
  EXPECT_EQ(FindTopLevelColon("70[1-5]:7[1-5].."), 7u);
}

class RewriterTest : public ::testing::Test {
 protected:
  AsnMap asn_map_{"rewrite-salt"};
  Uint16Permutation values_{"rewrite-salt", "community-values"};
  AsnRegexRewriter rewriter_{asn_map_};
  CommunityRegexRewriter community_rewriter_{asn_map_, values_};
};

TEST_F(RewriterTest, PrivateOnlyLanguageUnchanged) {
  const RewriteResult result = rewriter_.Rewrite("_6451[2-5]_");
  EXPECT_FALSE(result.changed);
  EXPECT_EQ(result.pattern, "_6451[2-5]_");
  EXPECT_EQ(result.language_size, 4u);
  EXPECT_TRUE(result.public_asns.empty());
}

TEST_F(RewriterTest, FullSpaceUnchanged) {
  const RewriteResult result = rewriter_.Rewrite(".*");
  EXPECT_FALSE(result.changed);
  EXPECT_EQ(result.pattern, ".*");
  EXPECT_EQ(result.language_size, 65536u);
}

TEST_F(RewriterTest, EmptyLanguageUnchanged) {
  const RewriteResult result = rewriter_.Rewrite("99999");
  EXPECT_FALSE(result.changed);
}

TEST_F(RewriterTest, PublicRangeRewritten) {
  const RewriteResult result = rewriter_.Rewrite("70[1-3]");
  EXPECT_TRUE(result.changed);
  EXPECT_EQ(result.public_asns,
            (std::vector<std::uint32_t>{701, 702, 703}));
  // The rewritten pattern's language must be exactly the permuted set.
  std::vector<std::uint32_t> expected = {
      asn_map_.Map(701), asn_map_.Map(702), asn_map_.Map(703)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(Language(result.pattern), expected);
}

TEST_F(RewriterTest, LanguageEqualityPropertyAcrossForms) {
  for (const char* pattern :
       {"_70[1-5]_", "(_1239_|_70[2-5]_)", "^1$", "12[0-9]."}) {
    const RewriteResult alternation =
        rewriter_.Rewrite(pattern, RewriteForm::kAlternation);
    const RewriteResult minimized =
        rewriter_.Rewrite(pattern, RewriteForm::kMinimizedDfa);
    ASSERT_TRUE(alternation.changed) << pattern;
    ASSERT_TRUE(minimized.changed) << pattern;
    EXPECT_EQ(Language(alternation.pattern), Language(minimized.pattern))
        << pattern;
    // And both equal the permuted original language.
    std::vector<std::uint32_t> expected;
    for (std::uint32_t asn : Language(pattern)) {
      expected.push_back(asn_map_.Map(asn));
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(Language(alternation.pattern), expected) << pattern;
  }
}

TEST_F(RewriterTest, MixedPublicPrivateRewritesBoth) {
  // 6451[0-3]: 64510, 64511 public; 64512, 64513 private (identity).
  const RewriteResult result = rewriter_.Rewrite("6451[0-3]");
  ASSERT_TRUE(result.changed);
  EXPECT_EQ(result.public_asns,
            (std::vector<std::uint32_t>{64510, 64511}));
  const auto language = Language(result.pattern);
  EXPECT_EQ(language.size(), 4u);
  EXPECT_TRUE(std::find(language.begin(), language.end(), 64512u) !=
              language.end());
  EXPECT_TRUE(std::find(language.begin(), language.end(), 64513u) !=
              language.end());
}

TEST_F(RewriterTest, CommunityRegexSplitAndRewrite) {
  // Figure 1 line 31: 701:7[1-5].. matches communities 7100-7599 from 701.
  const RewriteResult result = community_rewriter_.Rewrite("701:7[1-5]..");
  ASSERT_TRUE(result.changed);
  const std::size_t colon = FindTopLevelColon(result.pattern);
  ASSERT_NE(colon, std::string_view::npos);
  const auto asn_language =
      Language(std::string(result.pattern.substr(0, colon)));
  EXPECT_EQ(asn_language, (std::vector<std::uint32_t>{asn_map_.Map(701)}));
  const auto value_language =
      Language(std::string(result.pattern.substr(colon + 1)));
  ASSERT_EQ(value_language.size(), 500u);
  // Every mapped value corresponds to an original in 7100-7599.
  for (std::uint32_t v : value_language) {
    const std::uint32_t original = values_.Unmap(v);
    EXPECT_GE(original, 7100u);
    EXPECT_LE(original, 7599u);
  }
}

TEST_F(RewriterTest, CommunityRegexWithoutColonUntouched) {
  const RewriteResult result = community_rewriter_.Rewrite("7[0-9]+");
  EXPECT_FALSE(result.changed);
  EXPECT_EQ(result.pattern, "7[0-9]+");
}

TEST_F(RewriterTest, CommunityValueAlwaysAnonymized) {
  // Even a private-ASN community gets its value half anonymized
  // (conservative trade-off from Section 4.5).
  const RewriteResult result = community_rewriter_.Rewrite("65000:100");
  EXPECT_TRUE(result.changed);
  const std::size_t colon = FindTopLevelColon(result.pattern);
  EXPECT_EQ(result.pattern.substr(0, colon), "65000");
  EXPECT_EQ(result.pattern.substr(colon + 1),
            std::to_string(values_.Map(100)));
}

TEST_F(RewriterTest, DeterministicAcrossCalls) {
  EXPECT_EQ(rewriter_.Rewrite("70[1-3]").pattern,
            rewriter_.Rewrite("70[1-3]").pattern);
}

}  // namespace
}  // namespace confanon::asn
