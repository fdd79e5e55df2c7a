// The shared line engine both dialects run on.
//
// core::Anonymizer (IOS) and junos::JunosAnonymizer (JunOS) are rule
// packs over this class. The paper's techniques "are directly applicable
// to JunOS and other router configuration languages" (Section 1,
// footnote 2), so everything that is not a rule lives here once: the
// NetworkState and pass-list setup, the corpus-wide address preload
// (rule I7), the per-file loop with its arena reset and output-name
// hashing, line observation (per-line latency, rule attribution,
// provenance), the trace spans, the observability hooks and the delta
// sync of the report into the metrics registry.
//
// A rule pack supplies its DialectTraits (metric and span names, address
// collector, preload rule) and two calls: BeginFile, for per-file setup,
// and AnonymizeLine, which renders one input line. Callers — the
// parallel corpus pipeline, the CLI tool, the benches — drive a
// mixed-dialect corpus through this one type over one shared
// NetworkState without caring which rule pack handles which file.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "asn/asn_map.h"
#include "asn/regex_rewrite.h"
#include "config/document.h"
#include "core/leak_detector.h"
#include "core/network_state.h"
#include "core/report.h"
#include "core/rules.h"
#include "core/string_hasher.h"
#include "ipanon/ip_anonymizer.h"
#include "net/ipv4.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "passlist/passlist.h"
#include "util/arena.h"

namespace confanon::core {

/// The constants that tell one dialect's engine apart in the shared code.
struct DialectTraits {
  /// Prefix of the report, arena and trie metrics ("" for IOS, "junos.").
  const char* metric_prefix;
  /// Prefix of the line, file and tokenize histograms ("core.", "junos.").
  const char* timing_prefix;
  /// Trace spans of AnonymizeNetwork and of its corpus preload.
  const char* network_span;
  const char* preload_span;
  /// Rule the address preload is gated and counted under; none when the
  /// preload always runs and counts nowhere.
  std::optional<Rule> preload_rule;
  /// Collects every non-special IPv4 literal of a file under the
  /// dialect's tokenization (the operand of the preload).
  void (*collect_addresses)(const config::ConfigFile& file,
                            std::vector<net::Ipv4Address>& out);
};

/// Pushes the delta between `ip`'s counters and `synced` into `registry`
/// ("<prefix>ipanon.cache_hits", "cache_misses", "collision_walks",
/// "preloaded_addresses") and sets the "<prefix>ipanon.trie_nodes" gauge,
/// then advances `synced`. Idempotent, like SyncReportDeltas. Called by
/// whoever owns the trie: a standalone engine, or the pipeline for a
/// shared NetworkState.
void SyncTrieDeltas(const ipanon::IpAnonymizer& ip,
                    ipanon::IpAnonymizer::Stats& synced,
                    obs::MetricsRegistry& registry, const std::string& prefix);

class AnonymizerEngine {
 public:
  virtual ~AnonymizerEngine() = default;

  AnonymizerEngine(const AnonymizerEngine&) = delete;
  AnonymizerEngine& operator=(const AnonymizerEngine&) = delete;

  /// Anonymizes all files of one network consistently: corpus-wide
  /// address preload (rule I7) first, then each file in order.
  std::vector<config::ConfigFile> AnonymizeNetwork(
      const std::vector<config::ConfigFile>& files);

  /// Anonymizes a single file using (and extending) the shared state.
  /// When no corpus-wide preload has run yet, the engine preloads this
  /// file's own addresses first so rule I7's subnet-address guarantee
  /// holds at least file-locally.
  config::ConfigFile AnonymizeFile(const config::ConfigFile& file);

  /// The address preload's operand for one file: when this engine's
  /// dialect preloads (JunOS always, IOS unless rule I7 is disabled),
  /// appends the file's addresses to `out` and counts them under the
  /// traits' preload rule in this engine's report. AnonymizeNetwork,
  /// standalone AnonymizeFile and the corpus pipeline all collect their
  /// preload through this call.
  void CollectPreload(const config::ConfigFile& file,
                      std::vector<net::Ipv4Address>& out);

  /// Writes the anonymized groupings of declared known entities
  /// (paper Section 5); writes nothing when none were declared.
  virtual void ExportKnownEntities(std::ostream& /*out*/) {}

  const AnonymizationReport& report() const { return report_; }
  const LeakRecord& leak_record() const { return leak_record_; }

  /// Installs the observability hooks (metrics registry, trace sink,
  /// provenance log) in one shot; any member may be null, and with none
  /// installed the per-line path pays a single branch. Replaces the
  /// previously installed set.
  ///   * hooks.metrics — the report (per-rule fire counts under
  ///     "<prefix>rule.", totals under "<prefix>report."), the arena's
  ///     "<prefix>arena.bytes"/"<prefix>arena.resets", the IP trie's
  ///     "<prefix>ipanon.*" (standalone engines only), the
  ///     "<timing>line_ns"/"file_ns"/"tokenize_ns" histograms and the
  ///     regexp rewrite costs ("asn.rewrite_ns",
  ///     "asn.rewrite_dfa_states", "asn.rewrite_memo_hits"), synced at
  ///     file boundaries;
  ///   * hooks.trace — the network and preload spans, one "file:<name>"
  ///     span per file and "rule:<name>" spans nested inside it;
  ///   * hooks.provenance — one ProvenanceEntry per (line, fired rule)
  ///     with before/after word counts (Section 6.1 leak triage).
  void install_hooks(const obs::Hooks& hooks);

  /// Pushes any unreported report/arena/trie deltas into the installed
  /// metrics registry. Called automatically at file boundaries;
  /// idempotent. Engines over a handed-in (shared) NetworkState skip the
  /// trie's counters: the pipeline syncs those once, centrally.
  void SyncMetrics();

  /// The network-wide mapping state this engine reads and extends.
  /// Engines over the same NetworkState produce referentially consistent
  /// output across files and dialects.
  const std::shared_ptr<NetworkState>& state() const { return state_; }
  const asn::AsnMap& asn_map() const { return state_->asn_map; }
  const asn::Uint16Permutation& community_values() const {
    return state_->community_values;
  }
  ipanon::IpAnonymizer& ip_anonymizer() { return state_->ip; }
  StringHasher& string_hasher() { return state_->hasher; }
  /// The effective list: the dialect's shared baseline itself when there
  /// are no extras (so engines of one context share one object), else a
  /// merged copy.
  const passlist::PassList& pass_list() const { return *pass_list_; }

 protected:
  /// `state` null: the engine owns a fresh NetworkState salted `salt`.
  /// The pass-list is `baseline` merged with `extras`. `disabled` holds
  /// the rules the rule pack skips; the preload runs unless it holds the
  /// traits' preload rule.
  AnonymizerEngine(const DialectTraits& traits, std::string_view salt,
                   std::shared_ptr<const passlist::PassList> baseline,
                   const passlist::PassList& extras,
                   std::shared_ptr<NetworkState> state, RuleSet disabled);

  /// Per-file setup before the first line (banner regions, block-comment
  /// state).
  virtual void BeginFile(const config::ConfigFile& file) = 0;
  /// Processes line `index` of `file` end to end and appends its
  /// rendering to `out_lines` (nothing, for lines a rule drops). Every
  /// rewritten word may point into arena_ until the file ends.
  virtual void AnonymizeLine(const config::ConfigFile& file, std::size_t index,
                             std::vector<std::string>& out_lines) = 0;

  /// Runs `tokenize`, timed into "<timing>tokenize_ns" when a registry
  /// is installed.
  template <typename Tokenize>
  void TimedTokenize(Tokenize&& tokenize) {
    if (tokenize_hist_ == nullptr) {
      tokenize();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    tokenize();
    tokenize_hist_->Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }

  bool Enabled(Rule rule) const { return !disabled_[RuleIndex(rule)]; }

  /// Counts one fire of `rule` on the current line.
  void Fire(Rule rule) {
    report_.Fire(rule);
    line_fired_[RuleIndex(rule)] = true;
  }

  /// Records a regexp rewrite's cost into the registry, if installed.
  /// Memo-served results count toward "asn.rewrite_memo_hits" instead of
  /// re-adding DFA states / rewrite latency.
  void RecordRewrite(const asn::RewriteResult& result);

  /// Maps a non-special address through this engine's address memo and
  /// records its original in leak_record_.addresses. Only the engine's
  /// first sight of a value formats and records it and reaches the
  /// shared trie; later sights return the memoized image and touch no
  /// NetworkState member. The trie never rewrites a mapping it has
  /// returned, so the memo cannot go stale.
  net::Ipv4Address MapAddress(net::Ipv4Address original);

  /// Copies `address`'s dotted quad into the arena, followed by
  /// "/<length>" when `length` (at most 32) is set: a CIDR token keeps
  /// its length.
  std::string_view StoreAddress(net::Ipv4Address address,
                                std::optional<std::uint64_t> length);

  std::shared_ptr<const passlist::PassList> pass_list_;
  std::shared_ptr<NetworkState> state_;
  AnonymizationReport report_;
  LeakRecord leak_record_;
  /// Per-file scratch for rewritten words; reset at file boundaries,
  /// after the file's lines have been rendered.
  util::Arena arena_;

 private:
  using RuleNs = std::array<std::uint64_t, kRuleCount>;

  /// AnonymizeLine wrapped in timing + rule-fire attribution. In traced
  /// runs it splits the line's time evenly among the rules that fired on
  /// it, into `rule_ns`, and adds them to `file_fired`; it feeds the
  /// provenance log when one is installed.
  void ObserveLine(const config::ConfigFile& file, std::size_t index,
                   std::vector<std::string>& out_lines, RuleNs& rule_ns,
                   RuleSet& file_fired);

  const DialectTraits traits_;
  const std::string metric_prefix_;
  const RuleSet disabled_;
  const bool preload_enabled_;
  /// Whether state_ was handed in (pipeline worker, mixed-dialect run)
  /// rather than owned.
  const bool shared_state_;

  // Observability state. The instrument pointers are resolved once in
  // install_hooks so instrumented paths touch only atomics.
  obs::Tracer tracer_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::ProvenanceLog* provenance_ = nullptr;
  obs::LatencyHistogram* line_hist_ = nullptr;
  obs::LatencyHistogram* file_hist_ = nullptr;
  obs::LatencyHistogram* tokenize_hist_ = nullptr;
  obs::LatencyHistogram* rewrite_hist_ = nullptr;
  obs::Counter* dfa_states_total_ = nullptr;
  obs::Counter* rewrite_memo_hits_ = nullptr;
  /// Rules that fired on the line ObserveLine is observing.
  RuleSet line_fired_;
  /// Original -> image of every address MapAddress has mapped; its keys
  /// are the values in leak_record_.addresses.
  std::unordered_map<std::uint32_t, std::uint32_t> address_memo_;
  /// MapAddress calls served by address_memo_ since the last file end,
  /// when they are added to the trie's cache_hits counter.
  std::uint64_t memo_hits_ = 0;
  /// Last report/arena/trie state already pushed to the registry.
  AnonymizationReport synced_report_;
  ipanon::IpAnonymizer::Stats synced_ip_;
  std::uint64_t synced_arena_bytes_ = 0;
  std::uint64_t synced_arena_resets_ = 0;
};

}  // namespace confanon::core
