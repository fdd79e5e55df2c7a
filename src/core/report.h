// Anonymization run statistics.
//
// Per-rule fire counts plus the corpus-level measurements the paper
// reports (fraction of words that were comments and removed, Section 4.2;
// counts of regexp rewrites, Sections 4.4-4.5).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/rules.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace confanon::core {

struct AnonymizationReport {
  /// How many times each rule changed something, indexed by RuleIndex.
  std::array<std::uint64_t, kRuleCount> fires{};

  std::uint64_t total_lines = 0;
  std::uint64_t total_words = 0;
  /// Words removed by the comment-stripping rules (banner bodies,
  /// description/remark payloads, '!' comment text).
  std::uint64_t comment_words_removed = 0;
  /// Words replaced by the salted hash.
  std::uint64_t words_hashed = 0;
  /// Words cleared by the pass-list.
  std::uint64_t words_passed = 0;
  /// IP addresses rewritten / passed through as special.
  std::uint64_t addresses_mapped = 0;
  std::uint64_t addresses_special = 0;
  /// ASN literals permuted.
  std::uint64_t asns_mapped = 0;
  /// Community literals rewritten.
  std::uint64_t communities_mapped = 0;
  /// Policy regexps rewritten (as-path / community).
  std::uint64_t aspath_regexps_rewritten = 0;
  std::uint64_t community_regexps_rewritten = 0;

  void Fire(Rule rule, std::uint64_t n = 1) { fires[RuleIndex(rule)] += n; }
  std::uint64_t Fires(Rule rule) const { return fires[RuleIndex(rule)]; }

  double CommentWordFraction() const {
    return total_words == 0
               ? 0.0
               : static_cast<double>(comment_words_removed) /
                     static_cast<double>(total_words);
  }

  /// Merges another report into this one (per-network aggregation).
  void Merge(const AnonymizationReport& other);

  /// Multi-line human-readable rendering. Lists the rules that fired, in
  /// name order; a rule with no fires is not listed.
  std::string ToString() const;

  /// Writes the report as one JSON object: every scalar field by name,
  /// `comment_word_fraction`, and a `rule_fires` sub-object keyed by the
  /// name of every rule that fired, in name order. This is the
  /// machine-readable counterpart of ToString() and the shape embedded in
  /// BENCH_perf.json.
  void WriteJson(obs::JsonWriter& out) const;
  std::string ToJson() const;
};

/// Pushes the delta between `current` and `base` into `registry` —
/// counters "<prefix>report.<field>" for the scalar fields and
/// "<prefix>rule.<name>" for per-rule fires — then advances `base` to
/// `current`. Calling it repeatedly with the same pair is idempotent, so
/// the anonymizers can sync at every file boundary; the registry's
/// counters then always equal the report's totals.
void SyncReportDeltas(const AnonymizationReport& current,
                      AnonymizationReport& base,
                      obs::MetricsRegistry& registry,
                      const std::string& prefix);

}  // namespace confanon::core
