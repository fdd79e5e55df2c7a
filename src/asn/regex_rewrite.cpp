#include "asn/regex_rewrite.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "regex/dfa_to_regex.h"
#include "regex/nfa.h"
#include "regex/parser.h"

namespace confanon::asn {

namespace {

/// RAII stamp filling RewriteResult's timing on every exit path.
class RewriteStopwatch {
 public:
  explicit RewriteStopwatch(RewriteResult& result)
      : result_(result), start_(std::chrono::steady_clock::now()) {}
  ~RewriteStopwatch() {
    result_.elapsed_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  RewriteResult& result_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

std::string RewriteMemo::KeyOf(std::string_view pattern, RewriteForm form) {
  std::string key;
  key.reserve(pattern.size() + 2);
  key += form == RewriteForm::kAlternation ? 'a' : 'd';
  key += pattern;
  return key;
}

std::optional<RewriteResult> RewriteMemo::Lookup(std::string_view pattern,
                                                 RewriteForm form) const {
  const std::string key = KeyOf(pattern, form);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  entries_.splice(entries_.begin(), entries_, it->second);
  RewriteResult result = entries_.front().second;
  result.memo_hit = true;
  result.elapsed_ns = 0;
  return result;
}

void RewriteMemo::Store(std::string_view pattern, RewriteForm form,
                        const RewriteResult& result) const {
  const std::string key = KeyOf(pattern, form);
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_.contains(key)) return;  // racing workers computed it twice
  entries_.emplace_front(key, result);
  entries_.front().second.memo_hit = false;
  index_.emplace(key, entries_.begin());
  if (entries_.size() > capacity_) {
    index_.erase(entries_.back().first);
    entries_.pop_back();
  }
}

std::uint64_t RewriteMemo::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t RewriteMemo::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t RewriteMemo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

TokenLanguage TokenLanguage::Compile(std::string_view pattern) {
  regex::Ast ast;
  regex::ParseOptions options;
  options.cisco_underscore = true;
  const regex::NodeId body = regex::ParsePattern(pattern, options, ast);

  // Token semantics: the pattern may consume the framing sentinels (so
  // anchors and '_' work) but may not skip over token characters.
  regex::CharSet boundary;
  boundary.Add(regex::kBeginSentinel);
  boundary.Add(regex::kEndSentinel);
  const regex::NodeId left =
      ast.AddRepeat(ast.AddCharSet(boundary), 0, regex::kUnbounded);
  const regex::NodeId right =
      ast.AddRepeat(ast.AddCharSet(boundary), 0, regex::kUnbounded);
  ast.set_root(ast.AddConcat({left, body, right}));

  const regex::Nfa nfa = regex::Nfa::Build(ast);
  TokenLanguage language;
  language.dfa_ = std::make_shared<regex::Dfa>(regex::Dfa::FromNfa(nfa));
  return language;
}

bool TokenLanguage::Accepts(std::uint32_t value) const {
  return dfa_->FullMatch(regex::FrameSubject(std::to_string(value)));
}

std::vector<std::uint32_t> TokenLanguage::Enumerate() const {
  constexpr std::uint32_t kMaxValue = 65535;
  const regex::Dfa& dfa = *dfa_;
  const std::vector<bool> alive = dfa.AliveStates();
  // Depth-first over decimal strings: each entry is a value and the state
  // its framed prefix "<begin><digits>" leads to.
  std::vector<std::pair<int, std::uint32_t>> stack;
  const int begin = dfa.Transition(dfa.start(), regex::kBeginSentinel);
  for (std::uint32_t digit = 0; digit <= 9; ++digit) {
    stack.emplace_back(dfa.Transition(begin, static_cast<char>('0' + digit)),
                       digit);
  }
  std::vector<std::uint32_t> accepted;
  while (!stack.empty()) {
    const auto [state, value] = stack.back();
    stack.pop_back();
    if (!alive[static_cast<std::size_t>(state)]) continue;
    if (dfa.IsAccepting(dfa.Transition(state, regex::kEndSentinel))) {
      accepted.push_back(value);
    }
    if (value == 0) continue;  // no leading zeros
    for (std::uint32_t digit = 0;
         digit <= 9 && value * 10 + digit <= kMaxValue; ++digit) {
      stack.emplace_back(dfa.Transition(state, static_cast<char>('0' + digit)),
                         value * 10 + digit);
    }
  }
  std::sort(accepted.begin(), accepted.end());
  return accepted;
}

int TokenLanguage::StateCount() const { return dfa_->StateCount(); }

std::string RenderLanguage(const std::vector<std::uint32_t>& values,
                           RewriteForm form) {
  if (values.size() == 1) {
    return std::to_string(values.front());
  }
  if (form == RewriteForm::kAlternation) {
    std::string out = "(";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += '|';
      out += std::to_string(values[i]);
    }
    out += ')';
    return out;
  }
  // Minimized-DFA form: build the minimal automaton for the finite
  // language and recover a compact expression by state elimination.
  std::vector<std::string> words;
  words.reserve(values.size());
  for (std::uint32_t value : values) {
    words.push_back(std::to_string(value));
  }
  const regex::Dfa minimal =
      regex::BuildDfaFromStrings(words).Minimize();
  const auto expression = regex::DfaToRegex(minimal);
  // A non-empty language always yields an expression.
  return "(" + expression.value() + ")";
}

std::size_t FindTopLevelColon(std::string_view pattern) {
  int depth = 0;
  bool in_class = false;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    const char c = pattern[i];
    if (c == '\\') {
      ++i;
      continue;
    }
    if (in_class) {
      if (c == ']') in_class = false;
      continue;
    }
    switch (c) {
      case '[':
        in_class = true;
        break;
      case '(':
        ++depth;
        break;
      case ')':
        --depth;
        break;
      case ':':
        if (depth == 0) return i;
        break;
      default:
        break;
    }
  }
  return std::string_view::npos;
}

RewriteResult AsnRegexRewriter::Rewrite(std::string_view pattern,
                                        RewriteForm form) const {
  if (auto cached = memo_.Lookup(pattern, form)) return *std::move(cached);
  RewriteResult result = RewriteUncached(pattern, form);
  memo_.Store(pattern, form, result);
  return result;
}

RewriteResult AsnRegexRewriter::RewriteUncached(std::string_view pattern,
                                                RewriteForm form) const {
  RewriteResult result;
  result.pattern = std::string(pattern);
  const RewriteStopwatch stopwatch(result);

  const TokenLanguage language = TokenLanguage::Compile(pattern);
  result.dfa_states = static_cast<std::size_t>(language.StateCount());
  const std::vector<std::uint32_t> accepted = language.Enumerate();
  result.language_size = accepted.size();
  std::copy_if(accepted.begin(), accepted.end(),
               std::back_inserter(result.public_asns), IsPublicAsn);
  // "If the accepted language includes only private ASNs, which do not
  // need anonymization, no changes are required to the regexp."
  if (result.public_asns.empty()) {
    return result;
  }

  std::vector<std::uint32_t> mapped;
  mapped.reserve(accepted.size());
  for (std::uint32_t asn : accepted) {
    mapped.push_back(asn_map_.Map(asn));
  }
  std::sort(mapped.begin(), mapped.end());
  if (mapped == accepted) {
    // The permutation fixes the language as a set (e.g. ".*" accepting the
    // whole space); the regexp reveals nothing about individual ASNs.
    return result;
  }

  result.pattern = RenderLanguage(mapped, form);
  result.changed = true;
  return result;
}

RewriteResult CommunityRegexRewriter::Rewrite(std::string_view pattern,
                                              RewriteForm form) const {
  if (auto cached = memo_.Lookup(pattern, form)) return *std::move(cached);
  RewriteResult result = RewriteUncached(pattern, form);
  memo_.Store(pattern, form, result);
  return result;
}

RewriteResult CommunityRegexRewriter::RewriteUncached(
    std::string_view pattern, RewriteForm form) const {
  RewriteResult result;
  result.pattern = std::string(pattern);
  const RewriteStopwatch stopwatch(result);

  const std::size_t colon = FindTopLevelColon(pattern);
  if (colon == std::string_view::npos) {
    // Not in ASN:VALUE shape; the caller flags the line for review instead
    // of guessing at semantics.
    return result;
  }
  const std::string_view asn_part = pattern.substr(0, colon);
  const std::string_view value_part = pattern.substr(colon + 1);

  const TokenLanguage asn_compiled = TokenLanguage::Compile(asn_part);
  const TokenLanguage value_compiled = TokenLanguage::Compile(value_part);
  result.dfa_states = static_cast<std::size_t>(asn_compiled.StateCount()) +
                      static_cast<std::size_t>(value_compiled.StateCount());
  const std::vector<std::uint32_t> asn_language = asn_compiled.Enumerate();
  const std::vector<std::uint32_t> value_language =
      value_compiled.Enumerate();
  result.language_size = asn_language.size() * value_language.size();
  std::copy_if(asn_language.begin(), asn_language.end(),
               std::back_inserter(result.public_asns), IsPublicAsn);
  if (asn_language.empty() || value_language.empty()) {
    return result;
  }

  std::vector<std::uint32_t> mapped_asns;
  mapped_asns.reserve(asn_language.size());
  for (std::uint32_t a : asn_language) {
    mapped_asns.push_back(asn_map_.Map(a));
  }
  std::sort(mapped_asns.begin(), mapped_asns.end());

  // The value half is always anonymized ("we have chosen to favor
  // anonymity over information wherever such trade-offs must be made").
  std::vector<std::uint32_t> mapped_values;
  mapped_values.reserve(value_language.size());
  for (std::uint32_t v : value_language) {
    mapped_values.push_back(value_permutation_.Map(v));
  }
  std::sort(mapped_values.begin(), mapped_values.end());

  if (mapped_asns == asn_language && mapped_values == value_language) {
    return result;
  }
  result.pattern = RenderLanguage(mapped_asns, form) + ":" +
                   RenderLanguage(mapped_values, form);
  result.changed = true;
  return result;
}

}  // namespace confanon::asn
