// Rewriting regular expressions that accept ASNs or communities
// (paper Sections 4.4 and 4.5).
//
// ASNs referenced through digit wildcards/ranges cannot be permuted
// textually, so the paper leverages automata theory: compute the *language*
// the regexp accepts over the 2^16 ASN space, permute every accepted public
// ASN, and emit a regexp accepting exactly the permuted language — as a
// flat alternation by default, or as a compact expression recovered from
// the minimized DFA (the paper's mentioned-but-unbuilt extension, which we
// implement).
//
// Membership semantics ("applying the regexp to a list of all 2^16 ASNs
// and seeing which it accepts") follow the paper's worked example — 70[1-3]
// accepts exactly {701, 702, 703}: the pattern is matched against the ASN
// as a standalone path token, where '^', '$' and '_' may consume the token
// boundaries but plain literals cannot skip digits. So "_701_", "^701$" and
// "701" all accept exactly ASN 701, while "70[1-3]" does not accept 1701.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asn/asn_map.h"
#include "asn/community.h"
#include "regex/regex.h"

namespace confanon::asn {

/// A compiled token-membership matcher over the 16-bit integer space.
class TokenLanguage {
 public:
  /// Compiles `pattern` with token semantics. Throws regex::ParseError on
  /// malformed patterns.
  static TokenLanguage Compile(std::string_view pattern);

  /// True if the pattern accepts `value` (0..65535) as a standalone token.
  bool Accepts(std::uint32_t value) const;

  /// All accepted values in ascending order: the set Accepts() holds for.
  /// Walks the DFA over decimal strings digit by digit, skipping states
  /// that cannot reach acceptance, so the cost grows with the language,
  /// not with the 2^16 space.
  std::vector<std::uint32_t> Enumerate() const;

  /// Number of DFA states the compiled pattern uses (instrumentation).
  int StateCount() const;

 private:
  TokenLanguage() = default;
  std::shared_ptr<const regex::Dfa> dfa_;
};

/// How the rewritten language is rendered.
enum class RewriteForm {
  kAlternation,   // (701|13|4451|...) — the paper's deployed approach
  kMinimizedDfa,  // minimal-DFA -> regex state elimination (the extension)
};

struct RewriteResult {
  /// The pattern to place in the anonymized config. Equal to the input
  /// when no rewrite was needed.
  std::string pattern;
  /// True if the emitted pattern differs from the input.
  bool changed = false;
  /// Size of the accepted language over the 16-bit space.
  std::size_t language_size = 0;
  /// The accepted values that are public ASNs (pre-anonymization), in
  /// ascending order; of the ASN half for community patterns. Every one
  /// is identity-bearing, so the rule packs record them for the leak
  /// detector.
  std::vector<std::uint32_t> public_asns;
  /// Instrumentation: total DFA states compiled for this rewrite (both
  /// halves for community patterns) and wall time spent in Rewrite().
  std::size_t dfa_states = 0;
  std::uint64_t elapsed_ns = 0;
  /// True when the result was served from the rewriter's memo — no
  /// NFA/DFA work happened, and dfa_states describes the original
  /// compilation, not this call.
  bool memo_hit = false;
};

/// Bounded LRU memo over (pattern, form) -> RewriteResult. Real and
/// generated corpora repeat the same handful of as-path/community
/// regexps across hundreds of routers; since the rewriters are pure
/// functions of their (immutable-after-seed) permutations, the rewrite —
/// parse, NFA, DFA, the walk for the language, regex reconstruction —
/// only needs to run once per distinct pattern of a network. Thread-safe:
/// pipeline workers share one memo per rewriter.
class RewriteMemo {
 public:
  explicit RewriteMemo(std::size_t capacity = 1024) : capacity_(capacity) {}

  /// Returns the memoized result (memo_hit set, elapsed_ns zeroed — the
  /// lookup cost is not the rewrite cost) or nullopt on a miss.
  std::optional<RewriteResult> Lookup(std::string_view pattern,
                                      RewriteForm form) const;
  void Store(std::string_view pattern, RewriteForm form,
             const RewriteResult& result) const;

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::size_t size() const;

 private:
  static std::string KeyOf(std::string_view pattern, RewriteForm form);

  std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Most-recently-used at the front.
  mutable std::list<std::pair<std::string, RewriteResult>> entries_;
  mutable std::unordered_map<
      std::string,
      std::list<std::pair<std::string, RewriteResult>>::iterator>
      index_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

/// Rewrites an as-path regexp. Returns the input unchanged when the
/// accepted language contains no public ASNs ("If the accepted language
/// includes only private ASNs ... no changes are required") or when the
/// permuted language equals the original one (e.g. ".*").
class AsnRegexRewriter {
 public:
  explicit AsnRegexRewriter(const AsnMap& asn_map) : asn_map_(asn_map) {}

  RewriteResult Rewrite(std::string_view pattern,
                        RewriteForm form = RewriteForm::kAlternation) const;

  const RewriteMemo& memo() const { return memo_; }

 private:
  RewriteResult RewriteUncached(std::string_view pattern,
                                RewriteForm form) const;

  const AsnMap& asn_map_;
  RewriteMemo memo_;
};

/// Rewrites a community-list regexp of the form ASNRE:VALUERE (split at the
/// first top-level ':'). Each half's language is computed and permuted
/// independently — exactly the cross-product language the original colon
/// form denotes. Patterns without a top-level colon are returned unchanged
/// with changed=false (callers escalate them to the leak report).
class CommunityRegexRewriter {
 public:
  CommunityRegexRewriter(const AsnMap& asn_map,
                         const Uint16Permutation& value_permutation)
      : asn_map_(asn_map), value_permutation_(value_permutation) {}

  RewriteResult Rewrite(std::string_view pattern,
                        RewriteForm form = RewriteForm::kAlternation) const;

  const RewriteMemo& memo() const { return memo_; }

 private:
  RewriteResult RewriteUncached(std::string_view pattern,
                                RewriteForm form) const;

  const AsnMap& asn_map_;
  const Uint16Permutation& value_permutation_;
  RewriteMemo memo_;
};

/// Renders a set of 16-bit values as a regexp in the requested form.
/// Values must be non-empty and sorted ascending.
std::string RenderLanguage(const std::vector<std::uint32_t>& values,
                           RewriteForm form);

/// Finds the first ':' at nesting depth zero (outside classes and groups),
/// or npos.
std::size_t FindTopLevelColon(std::string_view pattern);

}  // namespace confanon::asn
