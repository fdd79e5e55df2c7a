#include "passlist/passlist.h"

#include <iterator>

#include "util/charscan.h"
#include "util/io.h"
#include "util/strings.h"

namespace confanon::passlist {

// Defined in builtin_corpus.cpp.
extern const char* const kBuiltinCorpus[];
extern const std::size_t kBuiltinCorpusSize;

PassList PassList::Builtin() {
  PassList list;
  for (std::size_t i = 0; i < kBuiltinCorpusSize; ++i) {
    list.Add(kBuiltinCorpus[i]);
  }
  return list;
}

const std::shared_ptr<const PassList>& PassList::SharedBuiltin() {
  static const std::shared_ptr<const PassList> list =
      std::make_shared<const PassList>(Builtin());
  return list;
}

void PassList::Add(std::string_view token) {
  if (token.empty()) return;
  std::string lowered = util::ToLower(token);
  entries_.push_back(lowered);
  tokens_.insert(std::move(lowered));
}

bool PassList::Contains(std::string_view token) const {
  char lowered[64];
  if (token.size() > sizeof(lowered)) {
    return tokens_.contains(util::ToLower(token));
  }
  for (std::size_t i = 0; i < token.size(); ++i) {
    const char c = token[i];
    lowered[i] = (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
  return tokens_.contains(std::string_view(lowered, token.size()));
}

bool PassList::PassesWord(std::string_view word) const {
  std::size_t begin = util::FindAlphaBoundary(word, 0, false);
  while (begin < word.size()) {
    const std::size_t end = util::FindAlphaBoundary(word, begin, true);
    if (!Contains(word.substr(begin, end - begin))) return false;
    begin = util::FindAlphaBoundary(word, end, false);
  }
  return true;
}

void PassList::Merge(const PassList& other) {
  tokens_.insert(other.tokens_.begin(), other.tokens_.end());
  entries_.insert(entries_.end(), other.entries_.begin(),
                  other.entries_.end());
}

PassList PassList::Truncated(double keep_fraction, std::uint64_t seed) const {
  PassList out;
  // Per-token coin flip keyed by the token text so the subset is stable
  // regardless of hash-set iteration order. Walking entries_ keeps the
  // survivors in load order; re-added tokens keep only their first entry.
  for (const std::string& token : entries_) {
    if (out.tokens_.contains(token)) continue;
    util::Rng rng(seed ^ util::HashSeed(token));
    if (rng.Chance(keep_fraction)) {
      out.Add(token);
    }
  }
  return out;
}

std::shared_ptr<const PassList> WithExtras(
    std::shared_ptr<const PassList> base, const PassList& extras) {
  if (extras.Entries().empty()) return base;
  auto merged = std::make_shared<PassList>(*base);
  merged->Merge(extras);
  return merged;
}

std::size_t DocScraper::ScrapeText(std::string_view text) {
  std::size_t added = 0;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !util::IsAsciiAlpha(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && util::IsAsciiAlpha(text[i])) ++i;
    if (i - start >= 2) {
      const std::string token = util::ToLower(text.substr(start, i - start));
      if (!target_.Contains(token)) {
        target_.Add(token);
        ++added;
      }
    }
  }
  return added;
}

std::size_t DocScraper::ScrapeStream(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  return ScrapeText(text);
}

std::optional<std::size_t> DocScraper::ScrapeFile(const std::string& path,
                                                  std::string* error) {
  const auto text = util::ReadFileFully(path, error);
  if (!text) return std::nullopt;
  return ScrapeText(*text);
}

}  // namespace confanon::passlist
