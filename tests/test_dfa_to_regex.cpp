#include "regex/dfa_to_regex.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "regex/parser.h"
#include "regex/regex.h"
#include "util/rng.h"

namespace confanon::regex {
namespace {

Dfa CompileToDfa(std::string_view pattern) {
  Ast ast;
  ParsePattern(pattern, ParseOptions{}, ast);
  return Dfa::FromNfa(Nfa::Build(ast));
}

TEST(EscapeRegexChar, EscapesMetacharacters) {
  EXPECT_EQ(EscapeRegexChar('.'), "\\.");
  EXPECT_EQ(EscapeRegexChar('('), "\\(");
  EXPECT_EQ(EscapeRegexChar('\\'), "\\\\");
  EXPECT_EQ(EscapeRegexChar('_'), "\\_");
  EXPECT_EQ(EscapeRegexChar('7'), "7");
  EXPECT_EQ(EscapeRegexChar('z'), "z");
}

TEST(CharSetToRegex, SingleChar) {
  EXPECT_EQ(CharSetToRegex(CharSet::Single('7')), "7");
  EXPECT_EQ(CharSetToRegex(CharSet::Single('.')), "\\.");
}

TEST(CharSetToRegex, Ranges) {
  CharSet digits;
  digits.AddRange('0', '9');
  EXPECT_EQ(CharSetToRegex(digits), "[0-9]");
  CharSet mixed;
  mixed.AddRange('a', 'c');
  mixed.Add('x');
  EXPECT_EQ(CharSetToRegex(mixed), "[a-cx]");
  CharSet two;
  two.Add('a');
  two.Add('b');
  EXPECT_EQ(CharSetToRegex(two), "[ab]");
}

TEST(BuildDfaFromStrings, AcceptsExactlyTheWords) {
  const std::vector<std::string> words = {"701", "702", "1239"};
  const Dfa dfa = BuildDfaFromStrings(words);
  for (const auto& word : words) {
    EXPECT_TRUE(dfa.FullMatch(word)) << word;
  }
  EXPECT_FALSE(dfa.FullMatch("703"));
  EXPECT_FALSE(dfa.FullMatch("70"));
  EXPECT_FALSE(dfa.FullMatch("7012"));
  EXPECT_FALSE(dfa.FullMatch(""));
}

TEST(BuildDfaFromStrings, HandlesSharedPrefixesAndMinimizes) {
  const std::vector<std::string> words = {"700", "701", "702", "703",
                                          "704", "705", "706", "707",
                                          "708", "709"};
  const Dfa minimal = BuildDfaFromStrings(words).Minimize();
  // 70[0-9]: states for "", "7", "70", accept, dead = 5.
  EXPECT_EQ(minimal.StateCount(), 5);
}

TEST(BuildDfaFromStrings, EmptySetIsTheEmptyLanguage) {
  const Dfa dfa = BuildDfaFromStrings({});
  EXPECT_TRUE(dfa.IsEmptyLanguage());
  for (const char* subject : {"", "\x02", "701"}) {
    EXPECT_FALSE(dfa.FullMatch(subject)) << subject;
  }
  // Minimized, the empty language is the lone dead state.
  EXPECT_EQ(dfa.Minimize().StateCount(), 1);
}

TEST(DfaToRegex, EmptyLanguageIsNullopt) {
  const Dfa dfa = BuildDfaFromStrings({});
  EXPECT_FALSE(DfaToRegex(dfa).has_value());
}

TEST(DfaToRegex, SingleWordRoundTrip) {
  const Dfa dfa = BuildDfaFromStrings({"701"});
  const auto expression = DfaToRegex(dfa);
  ASSERT_TRUE(expression.has_value());
  const Dfa round = CompileToDfa(*expression);
  EXPECT_TRUE(round.EquivalentTo(dfa));
}

TEST(DfaToRegex, FiniteLanguageRoundTrip) {
  const std::vector<std::vector<std::string>> languages = {
      {"701", "702", "703"},
      {"1", "22", "333"},
      {"13", "1300", "9999", "42"},
      {"0"},
      {"65535", "64512"},
  };
  for (const auto& words : languages) {
    const Dfa dfa = BuildDfaFromStrings(words).Minimize();
    const auto expression = DfaToRegex(dfa);
    ASSERT_TRUE(expression.has_value());
    const Dfa round = CompileToDfa(*expression);
    EXPECT_TRUE(round.EquivalentTo(dfa))
        << "language lost through " << *expression;
  }
}

TEST(DfaToRegex, InfiniteLanguageRoundTrip) {
  for (const char* pattern : {"(a|b)*abb", "a+b*", "(0|1){2,}", "x(yz)*"}) {
    const Dfa dfa = CompileToDfa(pattern).Minimize();
    const auto expression = DfaToRegex(dfa);
    ASSERT_TRUE(expression.has_value()) << pattern;
    EXPECT_TRUE(CompileToDfa(*expression).EquivalentTo(dfa))
        << pattern << " -> " << *expression;
  }
}

TEST(DfaToRegex, RandomFiniteLanguagesRoundTrip) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::string> words;
    const int count = static_cast<int>(rng.Between(1, 12));
    for (int i = 0; i < count; ++i) {
      words.push_back(
          std::to_string(static_cast<std::uint32_t>(rng.Below(65536))));
    }
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    const Dfa dfa = BuildDfaFromStrings(words).Minimize();
    const auto expression = DfaToRegex(dfa);
    ASSERT_TRUE(expression.has_value());
    const Dfa round = CompileToDfa(*expression);
    EXPECT_TRUE(round.EquivalentTo(dfa)) << *expression;
    for (const auto& word : words) {
      EXPECT_TRUE(round.FullMatch(word)) << word << " via " << *expression;
    }
  }
}

TEST(DfaToRegex, MinimizedOutputIsSmallerForDenseRanges) {
  // 500 consecutive values compress far better through the DFA than as an
  // alternation (the ablation the paper hints at in Section 4.4).
  std::vector<std::string> words;
  std::size_t alternation_size = 0;
  for (int v = 7100; v < 7600; ++v) {
    words.push_back(std::to_string(v));
    alternation_size += words.back().size() + 1;
  }
  const auto expression = DfaToRegex(BuildDfaFromStrings(words).Minimize());
  ASSERT_TRUE(expression.has_value());
  EXPECT_LT(expression->size(), alternation_size / 4);
}

}  // namespace
}  // namespace confanon::regex
