// Parallel corpus pipeline over the Session/Context API.
//
// Anonymizing a network is embarrassingly parallel *after* the corpus-wide
// address preload: rule I7 inserts every address (sorted) into the IP trie
// up front, which exhausts all randomness consumption — every subsequent
// Map() is a memo hit, every word hash is a pure function of (salt, word),
// and the ASN/community permutations are immutable after seeding. So the
// pipeline runs in two phases:
//
//   1. Preload (sequential): collect every address in the corpus — using
//      the right tokenizer per file dialect — and preload the shared trie.
//   2. Files (parallel): a fixed-size worker pool pulls fixed-size batches
//      of file indices from an atomic cursor. Each worker owns one IOS and
//      one JunOS engine (built by the context's dialect factories) over
//      the ONE shared core::Session, and routes each file to the engine
//      matching its dialect.
//
// Determinism guarantee: output files land at their input index, and the
// per-file transformation depends only on the shared (preloaded,
// interleaving-independent) state — so the corpus output is byte-identical
// to the sequential path for the same salt, for any thread count. Reports
// and leak records are merged at join (commutative sums / set unions), and
// provenance is collected per file and concatenated in corpus order, so
// those are deterministic too. See docs/PIPELINE.md.
//
// Public API shape (see core/session.h): a process-lifetime
// core::ServiceContext (options, pass list, dialect engine factories,
// hooks, thread budget) plus a per-network/per-tenant core::Session
// (salted NetworkState). The pipeline is a *driver* over those two
// objects; batch tools build both per run, the daemon keeps sessions
// alive across requests.
#pragma once

#include <cstddef>
#include <memory>
#include <ostream>
#include <vector>

#include "config/document.h"
#include "core/anonymizer.h"
#include "core/engine.h"
#include "core/leak_detector.h"
#include "core/network_state.h"
#include "core/report.h"
#include "core/session.h"
#include "defense/defense.h"
#include "junos/anonymizer.h"
#include "obs/hooks.h"
#include "obs/trace.h"

namespace confanon::pipeline {

/// DEPRECATED alias: dialect routing now lives in core::ConfigDialect so
/// the Session/Context API can route files without linking the pipeline.
/// Kept for one release; new code should spell core::ConfigDialect.
using FileDialect = core::ConfigDialect;

/// DEPRECATED forwarder for core::DetectDialect (the brace-structure
/// heuristic); kept for one release.
inline FileDialect DetectDialect(const config::ConfigFile& file) {
  return core::DetectDialect(file);
}

/// DEPRECATED alias: the consolidated options struct consumed by
/// core::ServiceContext is core::ServiceOptions — one struct for the
/// fields previously duplicated between PipelineOptions and
/// NetworkSetOptions (threads, dialect routing, engine options). Kept
/// for one release; new code should spell core::ServiceOptions.
using PipelineOptions = core::ServiceOptions;

/// Builds a ServiceContext with BOTH built-in dialect engine factories
/// registered (IOS is registered by core itself; JunOS is registered
/// here, the lowest layer that links the JunOS engine). Every batch tool
/// and the daemon construct their context through this.
std::shared_ptr<core::ServiceContext> MakeServiceContext(
    core::ServiceOptions options);

/// Anonymizes corpora against one core::Session with a pool of engine
/// workers. Two construction forms:
///
///   * Session form — CorpusPipeline(context, session): the pipeline is a
///     driver over an externally owned (possibly long-lived) session.
///     EVERY AnonymizeCorpus call preloads its own corpus's addresses
///     (Preload is idempotent per address), so a session fed successive
///     requests produces byte-for-byte what a sequential engine fed the
///     same files in the same order produces — the daemon's streaming
///     contract.
///   * Options form — CorpusPipeline(options): DEPRECATED thin forwarder
///     that builds a private context + session; preserves the historical
///     batch semantics (one preload per session, later AnonymizeCorpus
///     calls reuse the established mappings).
class CorpusPipeline {
 public:
  CorpusPipeline(std::shared_ptr<const core::ServiceContext> context,
                 std::shared_ptr<core::Session> session);

  /// DEPRECATED forwarder; see class comment.
  explicit CorpusPipeline(PipelineOptions options);

  /// Phase 1 + phase 2 (see file comment). Output file i corresponds to
  /// input file i. Worker exceptions are rethrown on the calling thread.
  std::vector<config::ConfigFile> AnonymizeCorpus(
      const std::vector<config::ConfigFile>& files);

  /// Merged view across the preload phase and every worker engine.
  const core::AnonymizationReport& report() const { return report_; }
  const core::LeakRecord& leak_record() const { return leak_record_; }

  /// Fingerprint-defense accounting for the LAST AnonymizeCorpus call
  /// (all zeros / empty when options().defense.k <= 1, which disables
  /// the defend phase). The manifest records every decoy insertion for
  /// confanon_audit --decoys.
  const defense::DefenseReport& defense_report() const {
    return defense_report_;
  }
  const defense::DecoyManifest& decoy_manifest() const {
    return decoy_manifest_;
  }

  /// Observability for the whole pipeline: the registry and trace sink
  /// are shared by all workers (both are thread-safe); provenance is
  /// captured per file and appended to hooks.provenance in corpus order
  /// at join, so the log is deterministic. When hooks.profiler is set,
  /// AnonymizeCorpus brackets its sequential phases (preload, anonymize,
  /// join) so the profiler attributes wall time and hardware counters
  /// per phase; when hooks.trace is also set, matching
  /// "phase:<name>" spans land in the trace. Defaults to the context's
  /// hooks; calling this overrides them for this pipeline.
  void install_hooks(const obs::Hooks& hooks) {
    hooks_ = hooks;
    tracer_.set_sink(hooks.trace);
  }

  /// The session this pipeline drives and its shared per-network state
  /// (for mapping export/import and tests).
  const std::shared_ptr<core::Session>& session() const { return session_; }
  const std::shared_ptr<core::NetworkState>& state() const {
    return session_->state();
  }
  ipanon::IpAnonymizer& ip_anonymizer() { return session_->state()->ip; }
  core::StringHasher& string_hasher() { return session_->state()->hasher; }

  /// Section 5 known-entity export over the shared mappings.
  void ExportKnownEntities(std::ostream& out);

 private:
  /// Effective thread count for a corpus of `file_count` files.
  int ResolveThreads(std::size_t file_count) const;
  FileDialect ResolveDialect(const config::ConfigFile& file) const;

  /// Corpus-wide rule I7: collect every file's addresses with the
  /// dialect-appropriate tokenizer and preload the shared trie. In the
  /// session form this runs once per AnonymizeCorpus call (streaming
  /// requests each preload their own file set); in the options form it
  /// runs once per session, like the sequential engine's corpus pass.
  void PreloadCorpus(const std::vector<config::ConfigFile>& files,
                     const std::vector<FileDialect>& dialects);

  /// Pushes shared-trie counter deltas and the trie-size gauge into the
  /// metrics registry (the workers deliberately skip these — syncing
  /// shared counters per worker would double count).
  void SyncSharedMetrics();

  std::shared_ptr<const core::ServiceContext> context_;
  std::shared_ptr<core::Session> session_;
  /// Session form: preload every AnonymizeCorpus call's corpus.
  bool per_call_preload_ = false;
  core::AnonymizationReport report_;
  core::LeakRecord leak_record_;
  defense::DefenseReport defense_report_;
  defense::DecoyManifest decoy_manifest_;
  obs::Hooks hooks_;
  obs::Tracer tracer_;  // pipeline-level phase spans; sink from hooks_
  ipanon::IpAnonymizer::Stats synced_ip_;
};

// --- cross-network parallelism ---
//
// Networks are fully independent: each has its own salt, its own
// Session and its own pipeline, so a multi-network corpus (the
// paper's 31-network dataset) parallelizes across networks as well as
// across the files within one. AnonymizeNetworkSet runs one
// CorpusPipeline per network over a shared thread budget: min(threads,
// networks) network slots run concurrently, and each network's own
// pipeline gets an equal share of the remaining budget. Every network's
// output is deterministic (the per-network guarantee composes — nothing
// is shared between networks), so the set output is byte-identical for
// any thread count.

/// One network's corpus plus its pipeline configuration. A task whose
/// options.threads is 0 receives its share of the set's budget;
/// explicit per-task thread counts are respected.
struct NetworkTask {
  core::ServiceOptions options;
  std::vector<config::ConfigFile> files;
};

/// One network's anonymized corpus and merged accounting, at the same
/// index as its task.
struct NetworkOutput {
  std::vector<config::ConfigFile> files;
  core::AnonymizationReport report;
  core::LeakRecord leak_record;
  /// Fingerprint-defense accounting (zeros when the defense is off).
  core::DefenseSummary defense;
};

/// DEPRECATED: the thread budget and the observability pointers both
/// moved into core::ServiceContext (options().threads and hooks());
/// kept for one release as a forwarder into the context overload.
struct NetworkSetOptions {
  /// Total worker-thread budget shared by all networks. 0 picks
  /// std::thread::hardware_concurrency().
  int threads = 0;
  /// Optional registry shared by every network's pipeline (thread-safe;
  /// counter totals are order-independent).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional span sink shared by every network's pipeline (must be
  /// thread-safe, like JsonlTraceSink or PhaseProfiler).
  obs::TraceSink* trace = nullptr;
  /// Optional phase profiler; every pipeline brackets its phases on it.
  /// Phase windows are re-entrant, so concurrent networks in the same
  /// phase count overlapping wall time once.
  obs::PhaseProfiler* profiler = nullptr;
};

/// Anonymizes several independent networks concurrently over
/// `set_context`'s thread budget (options().threads) and hooks. Output i
/// corresponds to tasks[i]. The first worker exception is rethrown on
/// the calling thread.
std::vector<NetworkOutput> AnonymizeNetworkSet(
    const std::vector<NetworkTask>& tasks,
    const core::ServiceContext& set_context);

/// DEPRECATED thin forwarder into the ServiceContext overload.
std::vector<NetworkOutput> AnonymizeNetworkSet(
    const std::vector<NetworkTask>& tasks,
    const NetworkSetOptions& set_options = {});

}  // namespace confanon::pipeline
