// Policy-regexp inputs shared by the regex test files: every as-path and
// community regexp in the committed test data, the fixed patterns the
// rewriter tests feed the compiler, and a seeded random pattern generator
// over the policy-regexp syntax.
#pragma once

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <string>
#include <utility>

#include "asn/regex_rewrite.h"
#include "util/rng.h"

namespace confanon::test_patterns {

/// Every pattern tests/test_regex_rewrite.cpp feeds the compiler or the
/// rewriters.
inline constexpr const char* kRewriteTestPatterns[] = {
    "70[1-3]", "701", "^701$", "_701_", "^701", "701$", "70[0-9]",
    "70.", "(_1239_|_70[2-5]_)", "(1|701)", ".*", "^.*$",
    "_6451[2-5]_", "1234567", "70000", "12[0-9]{2}", "99999",
    "_70[1-5]_", "^1$", "12[0-9].", "6451[0-3]", "701:7[1-5]..",
    "7[0-9]+", "65000:100"};

/// Adds `pattern` and, when it has a top-level colon, the two halves the
/// community rewriter enumerates.
inline void AddWithHalves(const std::string& pattern,
                          std::set<std::string>& out) {
  out.insert(pattern);
  const std::size_t colon = asn::FindTopLevelColon(pattern);
  if (colon != std::string::npos) {
    out.insert(pattern.substr(0, colon));
    out.insert(pattern.substr(colon + 1));
  }
}

/// Every as-path and community regexp in the committed test configs: IOS
/// `ip as-path access-list` and expanded `ip community-list` lines, JunOS
/// quoted `as-path NAME "..."` and `members "..."`.
inline std::set<std::string> DataPatterns() {
  static const std::regex kIosAsPath(
      R"(^\s*ip as-path access-list \S+ (?:permit|deny) (.*\S))");
  static const std::regex kIosExpandedCommunity(
      R"(^\s*ip community-list (?:expanded \S+|\d+) (?:permit|deny) (.*\S))");
  static const std::regex kJunosQuoted(R"((?:as-path \S+|members) "([^"]*)\")");
  std::set<std::string> patterns;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           CONFANON_TEST_DATA_DIR)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      std::smatch match;
      if (std::regex_search(line, match, kIosAsPath) ||
          std::regex_search(line, match, kIosExpandedCommunity) ||
          std::regex_search(line, match, kJunosQuoted)) {
        AddWithHalves(match[1].str(), patterns);
      }
    }
  }
  return patterns;
}

/// DataPatterns() plus kRewriteTestPatterns, each with its halves.
inline std::set<std::string> CorpusPatterns() {
  std::set<std::string> patterns = DataPatterns();
  for (const char* pattern : kRewriteTestPatterns) {
    AddWithHalves(pattern, patterns);
  }
  return patterns;
}

/// A random pattern over the syntax policy regexps use: digits, '.',
/// ranges, the four quantifiers, alternation, groups and the three
/// boundary atoms. A few ranges and repeat bounds are left out of order,
/// so some patterns must fail to parse.
inline std::string RandomPattern(util::Rng& rng, int depth) {
  // Two ascending values below `bound`, swapped back out of order in one
  // draw of ten.
  const auto ordered_pair = [&](std::uint64_t bound) {
    std::uint64_t lo = rng.Below(bound);
    std::uint64_t hi = rng.Below(bound);
    if ((lo > hi) != rng.Chance(0.1)) std::swap(lo, hi);
    return std::pair{std::to_string(lo), std::to_string(hi)};
  };
  std::string out;
  const int branches = rng.Chance(0.3) ? 2 : 1;
  for (int branch = 0; branch < branches; ++branch) {
    if (branch > 0) out += '|';
    const auto atoms = rng.Between(1, 5);
    for (std::int64_t atom = 0; atom < atoms; ++atom) {
      switch (rng.Below(depth > 0 ? 9 : 8)) {
        case 0:
        case 1:
        case 2:
        case 3:
          out += static_cast<char>('0' + rng.Below(10));
          break;
        case 4:
          out += '.';
          break;
        case 5:
        case 6: {
          const auto [lo, hi] = ordered_pair(10);
          out += '[' + lo + '-' + hi + ']';
          break;
        }
        case 7:
          out += "_^$"[rng.Below(3)];
          break;
        default:
          out += '(' + RandomPattern(rng, depth - 1) + ')';
          break;
      }
      switch (rng.Below(10)) {
        case 0:
          out += '*';
          break;
        case 1:
          out += '+';
          break;
        case 2:
          out += '?';
          break;
        case 3: {
          const auto [lo, hi] = ordered_pair(4);
          out += '{' + lo + ',' + hi + '}';
          break;
        }
        default:
          break;
      }
    }
  }
  return out;
}

}  // namespace confanon::test_patterns
