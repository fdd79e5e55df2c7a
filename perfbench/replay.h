// The traced replay: re-runs a workload's pipeline calls layer by layer
// through the public functions of the src/ modules, on one thread,
// timing each call from here. No obs::Hooks are installed; the spans
// live only in the benchmark's SpanLog.
//
// A replayed CorpusPipeline::AnonymizeCorpus call is, in order:
//   pipeline.route    core::DetectDialect per file
//   ipanon.collect    {core::Anonymizer,junos::JunosAnonymizer}::
//                     CollectFileAddresses
//   ipanon.preload    IpAnonymizer::Preload (marks the state preloaded)
//   passlist.build    PassList::Builtin() + junos::JunosPassList()
//   core.prewarm      CollectHashCandidates + core::PrewarmHashMemo
//   core.engine_make  ServiceContext::MakeEngine for both dialects (and,
//                     after the join, their destruction)
//   core.anonymize /  AnonymizerEngine::AnonymizeFile per file
//   junos.anonymize
//   pipeline.join     LeakRecord::Merge of both engines' records
// and pipeline::MakeServiceContext is split into pipeline.context
// (context without verification, plus CreateSession) and verify.policy
// (verify::VerifyEngineOptions on the same options).
#pragma once

#include <memory>
#include <unordered_set>

#include "common.h"

namespace perfbench {

/// Every per-layer metric, in output order. A workload that does not
/// run a layer reports 0 for it.
struct LayerMetric {
  const char* name;
  const char* unit;
};
inline constexpr LayerMetric kLayerMetrics[] = {
    {"pipeline.context_s", "s"},       {"pipeline.contexts", "count"},
    {"verify.policy_s", "s"},          {"verify.dfa_states", "count"},
    {"pipeline.route_s", "s"},         {"ipanon.collect_s", "s"},
    {"ipanon.preload_s", "s"},         {"ipanon.addresses", "count"},
    {"ipanon.trie_nodes", "count"},    {"ipanon.cache_hit_ratio", "ratio"},
    {"core.prewarm_s", "s"},           {"core.hash_candidates", "count"},
    {"core.words_hashed", "count"},    {"core.prewarm_useful_ratio", "ratio"},
    {"passlist.build_s", "s"},         {"passlist.builds", "count"},
    {"core.engine_make_s", "s"},       {"core.engines_made", "count"},
    {"core.anonymize_s", "s"},         {"core.ns_per_line", "ns"},
    {"core.file_us_p50", "us"},        {"core.file_us_p99", "us"},
    {"junos.anonymize_s", "s"},        {"junos.ns_per_line", "ns"},
    {"junos.file_us_p50", "us"},       {"junos.file_us_p99", "us"},
    {"config.tokenize_ns_per_line", "ns"},
    {"junos.tokenize_ns_per_line", "ns"},
    {"asn.rewrites", "count"},         {"asn.cold_network_ms", "ms"},
    {"asn.warm_network_ms", "ms"},     {"pipeline.join_s", "s"},
    {"pipeline.anonymize_s", "s"},
    {"pipeline.parallel_efficiency", "ratio"},
    {"audit.lint_s", "s"},             {"audit.files", "count"},
    {"audit.findings", "count"},       {"audit.pair_errors", "count"},
    {"core.textual_leaks", "count"},   {"core.leak_scan_s", "s"},
    {"core.leak_lines", "count"},      {"util.read_s", "s"},
    {"util.read_mb", "MB"},            {"util.write_s", "s"},
    {"util.write_mb", "MB"},           {"service.client_requests", "count"},
    {"service.client_p50_ms", "ms"},   {"service.client_p99_ms", "ms"},
    {"service.req_per_s", "1/s"},      {"service.pipeline_us_p50", "us"},
    {"obs.http_us_p50", "us"},         {"service.rejected", "count"},
    {"trace.overhead_frac", "ratio"},  {"trace.coverage_frac", "ratio"},
    {"trace.other_s", "s"},
};

/// Leaf span names whose durations are the layer rows; together with
/// trace.other_s they tile the replay wall (the "replay" root spans).
inline constexpr const char* kRowSpans[] = {
    "pipeline.context", "verify.policy",  "pipeline.route",
    "ipanon.collect",   "ipanon.preload", "passlist.build",
    "core.prewarm",     "core.engine_make", "core.anonymize",
    "junos.anonymize",  "pipeline.join",  "audit.lint",
    "core.leak_scan",   "util.read",      "util.write",
};
inline constexpr const char* kRootSpan = "replay";

using LayerValues = std::map<std::string, double>;

/// Appends every kLayerMetrics entry to `result` (0 when absent).
/// Throws on a value whose name is not in kLayerMetrics.
void EmitLayerMetrics(const LayerValues& values, Result& result);

class Replayer {
 public:
  explicit Replayer(SpanLog& log) : log_(log) {}

  /// pipeline::MakeServiceContext with default options at one thread, as
  /// two rows.
  std::shared_ptr<confanon::core::ServiceContext> MakeContext();
  /// ServiceContext::CreateSession, in the pipeline.context row.
  std::shared_ptr<confanon::core::Session> CreateSession(
      const confanon::core::ServiceContext& context, std::string_view salt);

  /// CorpusPipeline(context, session).AnonymizeCorpus(files) on one
  /// thread; byte-identical to the pipeline at any thread count.
  /// `leaks`, when non-null, receives the merged leak record of the
  /// call (the pipeline's join).
  std::vector<confanon::config::ConfigFile> AnonymizeCorpus(
      const confanon::core::ServiceContext& context,
      confanon::core::Session& session,
      const std::vector<confanon::config::ConfigFile>& files,
      confanon::core::LeakRecord* leaks = nullptr);

  /// Fills the rows, counts and ratios the replay measured. `untraced_s`
  /// is the wall of the same work run untraced on one thread.
  void Collect(double untraced_s, LayerValues& values);

 private:
  SpanLog& log_;
  std::uint64_t contexts_ = 0;
  std::uint64_t passlist_builds_ = 0;
  std::uint64_t engines_ = 0;
  std::uint64_t addresses_ = 0;
  std::uint64_t prewarmed_ = 0;
  std::uint64_t ios_lines_ = 0;
  std::uint64_t junos_lines_ = 0;
  std::uint64_t asn_rewrites_ = 0;
  double dfa_states_ = 0;
  /// Sessions replayed, with the distinct words their rules hashed.
  std::map<confanon::core::Session*,
           std::pair<std::shared_ptr<confanon::core::Session>,
                     std::unordered_set<std::string>>>
      sessions_;
};

/// The tokenizer sub-rows: a standalone config::TokenizeLineInto /
/// junos::TokenizeJunosLineInto pass over `files`, in ns per line of
/// each dialect. Reported beside the engine rows, not added to coverage.
void TokenizePass(const std::vector<confanon::config::ConfigFile>& files,
                  LayerValues& values);

}  // namespace perfbench
