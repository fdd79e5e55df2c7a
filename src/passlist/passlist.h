// The pass-list of unprivileged tokens (paper Section 4.1).
//
// "Being unable to know a priori which strings can leak information about
// the identity of the network owner, the most conservative approach is to
// cryptographically hash every string that is not known to be innocuous."
// The pass-list is the set of tokens known to be innocuous: Cisco IOS
// keywords and the ordinary English vocabulary of the command reference
// guides. Tokens are compared case-insensitively (IOS is case-insensitive
// for keywords).
//
// The paper built its pass-list with a web-walker that string-scraped the
// online IOS command references; offline, we embed a corpus of IOS command
// keywords (builtin_corpus.cpp) and provide DocScraper, which reproduces
// the ingestion path over local command-reference text files.
#pragma once

#include <cstddef>
#include <functional>
#include <istream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace confanon::passlist {

class PassList {
 public:
  PassList() = default;

  /// The embedded IOS keyword + reference-vocabulary corpus, as a fresh
  /// copy the caller may extend or truncate.
  static PassList Builtin();

  /// The same corpus, built once per process and shared read-only: the
  /// default core::AnonymizerOptions::pass_list, borrowed by every
  /// options copy and engine instead of copied.
  static const std::shared_ptr<const PassList>& SharedBuiltin();

  /// Adds one token (lowercased). Non-alphabetic characters are permitted
  /// but callers normally add pure alphabetic tokens, matching what the
  /// tokenizer checks.
  void Add(std::string_view token);

  /// Case-insensitive membership.
  bool Contains(std::string_view token) const;

  /// Rules T1/T2's test: true when every maximal alphabetic run of
  /// `word` is on the list (a word with none passes).
  bool PassesWord(std::string_view word) const;

  std::size_t Size() const { return tokens_.size(); }

  /// Every Add() in load order, lowercased, duplicates included. The
  /// static policy verifier walks this to anchor findings to the entry
  /// that introduced a token and to detect shadowed (re-added) entries;
  /// membership queries never touch it.
  const std::vector<std::string>& Entries() const { return entries_; }

  /// Merges another list into this one.
  void Merge(const PassList& other);

  /// A copy retaining each token independently with probability
  /// `keep_fraction` (deterministic in `seed`). Used by the coverage
  /// ablation: a thinner pass-list hashes more tokens and destroys more
  /// structure.
  PassList Truncated(double keep_fraction, std::uint64_t seed) const;

 private:
  /// Transparent hash so Contains can probe with a lowercased view
  /// instead of building a std::string per lookup. Deliberately not
  /// noexcept: libstdc++ keeps each node's hash code only for a hash that
  /// may throw, and without kept codes every probe rehashes the keys it
  /// walks past, which made lookups slower than building the string.
  struct TransparentHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };

  std::unordered_set<std::string, TransparentHash, std::equal_to<>> tokens_;
  std::vector<std::string> entries_;
};

/// `base` itself when `extras` is empty; otherwise a new list holding
/// base's entries followed by the extras'. Engines build their
/// effective list through this, so the common no-extras case borrows
/// the shared baseline and a tenant's extras never touch it.
std::shared_ptr<const PassList> WithExtras(
    std::shared_ptr<const PassList> base, const PassList& extras);

/// Builds pass-list entries by string-scraping documentation, the offline
/// stand-in for the paper's web-walker. Every maximal ASCII-alphabetic run
/// of length >= 2 in the document becomes a pass-list token ("non-keywords
/// used in the guides are so common they cannot leak information").
class DocScraper {
 public:
  explicit DocScraper(PassList& target) : target_(target) {}

  /// Scrapes one document's text. Returns the number of distinct new
  /// tokens added.
  std::size_t ScrapeText(std::string_view text);

  /// Scrapes a whole stream (one copy off the stream buffer).
  std::size_t ScrapeStream(std::istream& in);

  /// Scrapes a file via the single-allocation reader. Returns nullopt
  /// (with an errno-bearing message in `error`, when non-null) if the
  /// file cannot be read.
  std::optional<std::size_t> ScrapeFile(const std::string& path,
                                        std::string* error = nullptr);

 private:
  PassList& target_;
};

}  // namespace confanon::passlist
