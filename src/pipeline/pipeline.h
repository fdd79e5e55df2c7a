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

/// Builds a ServiceContext with BOTH built-in dialect engine factories
/// registered (IOS is registered by core itself; JunOS is registered
/// here, the lowest layer that links the JunOS engine). Every batch tool
/// and the daemon construct their context through this.
std::shared_ptr<core::ServiceContext> MakeServiceContext(
    core::ServiceOptions options);

/// Anonymizes corpora against one core::Session with a pool of engine
/// workers, run over an externally owned (possibly long-lived)
/// session. EVERY AnonymizeCorpus call preloads its own corpus's
/// addresses (Preload is idempotent per address), so a session fed
/// successive requests produces byte-for-byte what a sequential engine
/// fed the same files in the same order produces — the daemon's
/// streaming contract. A batch run builds its context with
/// MakeServiceContext and its session with CreateSession().
class CorpusPipeline {
 public:
  CorpusPipeline(std::shared_ptr<const core::ServiceContext> context,
                 std::shared_ptr<core::Session> session);

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
  core::ConfigDialect ResolveDialect(const config::ConfigFile& file) const;

  std::shared_ptr<const core::ServiceContext> context_;
  std::shared_ptr<core::Session> session_;
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
//
// Fixed cost is paid once per set, not once per network. A network
// whose policy inputs (verify::SamePolicyInputs: IOS pass-list entries,
// extras, disabled rules) equal the set context's takes over the set
// context's verdict instead of verifying the same policy again; any
// other network is verified on its own. Either way every session is
// gated on a verdict of the verifier, so a leaky policy makes the set
// throw core::PolicyError. Engines borrow the builtin pass-lists, which
// are built once per process.

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

/// Anonymizes several independent networks concurrently over
/// `set_context`'s thread budget (options().threads) and hooks. Build
/// the set context with MakeServiceContext, so that its verdict can
/// stand for every task with the same policy inputs (a context built
/// directly carries no verdict, and each task then verifies its own).
/// Output i corresponds to tasks[i]. The first worker exception — a
/// core::PolicyError for a task whose verdict gates its session — is
/// rethrown on the calling thread.
std::vector<NetworkOutput> AnonymizeNetworkSet(
    const std::vector<NetworkTask>& tasks,
    const core::ServiceContext& set_context);

}  // namespace confanon::pipeline
