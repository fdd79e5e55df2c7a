#include "analysis/regex_usage.h"

#include <algorithm>

#include "asn/community.h"
#include "asn/regex_rewrite.h"
#include "config/tokenizer.h"
#include "util/strings.h"

namespace confanon::analysis {

namespace {

/// True if the pattern uses a digit wildcard or a character range —
/// unescaped '[' or '.'.
bool HasRangeOrWildcard(std::string_view pattern) {
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == '\\') {
      ++i;
      continue;
    }
    if (pattern[i] == '[' || pattern[i] == '.') return true;
  }
  return false;
}

bool HasAlternation(std::string_view pattern) {
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == '\\') {
      ++i;
      continue;
    }
    if (pattern[i] == '|') return true;
  }
  return false;
}

}  // namespace

RegexUsage DetectRegexUsage(const std::vector<config::ConfigFile>& configs) {
  RegexUsage usage;
  for (const config::ConfigFile& file : configs) {
    for (const std::string_view raw : file.lines()) {
      const config::LineTokens tokens = config::TokenizeLine(raw);
      const auto& words = tokens.words;
      if (words.size() < 2) continue;
      const std::string first = util::ToLower(words[0]);
      const std::string second = util::ToLower(words[1]);

      if (first == "ip" && second == "as-path" && words.size() >= 6) {
        // Pattern is the remainder of the line after permit/deny.
        std::string pattern;
        for (std::size_t i = 5; i < words.size(); ++i) {
          if (i > 5) pattern += tokens.gaps[i];
          pattern += words[i];
        }
        if (HasAlternation(pattern)) usage.asn_alternation = true;
        if (HasRangeOrWildcard(pattern)) {
          try {
            const std::vector<std::uint32_t> language =
                asn::TokenLanguage::Compile(pattern).Enumerate();
            if (std::any_of(language.begin(), language.end(),
                            asn::IsPublicAsn)) {
              usage.asn_range_public = true;
            } else {
              usage.asn_range_private = true;
            }
          } catch (const regex::ParseError&) {
            // Unparseable patterns are counted as public-range: the
            // conservative bucket.
            usage.asn_range_public = true;
          }
        }
        continue;
      }

      if (first == "ip" && second == "community-list" && words.size() >= 5) {
        // Items follow permit/deny; a non-literal, non-keyword item is a
        // regexp (expanded community-list).
        std::size_t action = 0;
        for (std::size_t i = 2; i < words.size(); ++i) {
          const std::string w = util::ToLower(words[i]);
          if (w == "permit" || w == "deny") {
            action = i;
            break;
          }
        }
        if (action == 0) continue;
        for (std::size_t i = action + 1; i < words.size(); ++i) {
          const std::string w = util::ToLower(words[i]);
          if (w == "internet" || w == "no-export" || w == "no-advertise" ||
              w == "local-as" || w == "additive") {
            continue;
          }
          if (asn::ParseCommunity(words[i]).has_value()) continue;
          usage.community_regex = true;
          std::string pattern;
          for (std::size_t j = i; j < words.size(); ++j) {
            if (j > i) pattern += tokens.gaps[j];
            pattern += words[j];
          }
          if (HasRangeOrWildcard(pattern)) usage.community_range = true;
          break;
        }
      }
    }
  }
  return usage;
}

}  // namespace confanon::analysis
