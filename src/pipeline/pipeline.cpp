#include "pipeline/pipeline.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "core/anonymizer.h"
#include "obs/profiler.h"
#include "obs/provenance.h"
#include "pipeline/parallel_for.h"
#include "util/strings.h"
#include "verify/verify.h"

namespace confanon::pipeline {

namespace {

/// One worker's engines: an IOS and a JunOS anonymizer (built by the
/// context's dialect factories) over the shared session state. Each
/// worker owns its pair so reports, leak records and per-line
/// observability buffers are single-writer; only the state is shared
/// (and internally synchronized).
struct EngineWorker {
  EngineWorker(const core::ServiceContext& context,
               const core::Session& session)
      : ios(context.MakeEngine(core::ConfigDialect::kIos, session)),
        junos(context.MakeEngine(core::ConfigDialect::kJunos, session)) {}

  core::AnonymizerEngine& ForDialect(core::ConfigDialect dialect) {
    return dialect == core::ConfigDialect::kJunos ? *junos : *ios;
  }

  std::unique_ptr<core::AnonymizerEngine> ios;
  std::unique_ptr<core::AnonymizerEngine> junos;
};

/// MakeServiceContext's body. `verified`, when non-null, is a context
/// whose verdict this one may take over instead of verifying again.
std::shared_ptr<core::ServiceContext> BuildContext(
    core::ServiceOptions options, const core::ServiceContext* verified) {
  auto context = std::make_shared<core::ServiceContext>(std::move(options));
  // core registered the IOS factory; the JunOS engine links against core,
  // so its factory is registered here — the lowest layer that sees it.
  context->RegisterEngineFactory(
      core::ConfigDialect::kJunos,
      [](const core::AnonymizerOptions& engine_options,
         std::shared_ptr<core::NetworkState> state) {
        return std::make_unique<junos::JunosAnonymizer>(
            junos::JunosOptionsFrom(engine_options), std::move(state));
      });
  // Static policy verification (src/verify) happens here — the lowest
  // layer that links both dialect engines and thus can model the full
  // cross-dialect policy. The verdict makes CreateSession throw
  // core::PolicyError on a provably leaky policy. A verdict over the
  // same verifier inputs is the verdict this run would compute.
  if (context->options().verify_policy) {
    const core::AnonymizerOptions& base = context->options().base;
    context->SetPolicyVerdict(
        verified != nullptr && verified->policy_verdict().verified &&
                verify::SamePolicyInputs(base, verified->options().base)
            ? verified->policy_verdict()
            : verify::VerdictOf(verify::VerifyEngineOptions(base)));
  }
  return context;
}

}  // namespace

std::shared_ptr<core::ServiceContext> MakeServiceContext(
    core::ServiceOptions options) {
  return BuildContext(std::move(options), nullptr);
}

CorpusPipeline::CorpusPipeline(
    std::shared_ptr<const core::ServiceContext> context,
    std::shared_ptr<core::Session> session)
    : context_(std::move(context)), session_(std::move(session)) {
  install_hooks(context_->hooks());
}

int CorpusPipeline::ResolveThreads(std::size_t file_count) const {
  return context_->ResolveThreads(file_count);
}

core::ConfigDialect CorpusPipeline::ResolveDialect(
    const config::ConfigFile& file) const {
  const core::ConfigDialect dialect = context_->options().dialect;
  return dialect == core::ConfigDialect::kAuto ? core::DetectDialect(file)
                                               : dialect;
}

void CorpusPipeline::PreloadCorpus(
    const std::vector<config::ConfigFile>& files,
    const std::vector<core::ConfigDialect>& dialects) {
  core::NetworkState& state = *session_->state();
  // Every call preloads its own corpus: Preload is idempotent per
  // address, and a per-request preload is exactly what the standalone
  // streaming AnonymizeFile path does, which keeps request streams
  // byte-identical to it.
  const bool i7_enabled = !context_->options().base.disabled_rules.contains(
      core::rules::kSubnetPreload);

  // JunOS files always contribute (the JunOS engine preloads
  // unconditionally — its rule pack has no toggles); IOS files
  // contribute under rule I7, with the sequential engine's accounting.
  std::vector<net::Ipv4Address> addresses;
  std::size_t ios_count = 0;
  bool any_ios = false;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (dialects[i] == core::ConfigDialect::kJunos) {
      junos::JunosAnonymizer::CollectFileAddresses(files[i], addresses);
    } else if (i7_enabled) {
      any_ios = true;
      const std::size_t before = addresses.size();
      core::Anonymizer::CollectFileAddresses(files[i], addresses);
      ios_count += addresses.size() - before;
    }
  }
  if (i7_enabled && any_ios) {
    report_.CountRule(core::rules::kSubnetPreload, ios_count);
    if (hooks_.metrics != nullptr) {
      hooks_.metrics
          ->CounterNamed(std::string("rule.") + core::rules::kSubnetPreload)
          .Add(ios_count);
    }
  }
  state.ip.Preload(std::move(addresses));
  state.preloaded.store(true, std::memory_order_release);
}

std::vector<config::ConfigFile> CorpusPipeline::AnonymizeCorpus(
    const std::vector<config::ConfigFile>& files) {
  std::vector<core::ConfigDialect> dialects(files.size());

  // Phase 1: dialect routing + corpus-wide preload. All RNG consumption
  // happens here; phase 2 only reads the trie's memo.
  {
    obs::PhaseProfiler::ScopedPhase phase(hooks_.profiler, &tracer_,
                                          "preload");
    for (std::size_t i = 0; i < files.size(); ++i) {
      dialects[i] = ResolveDialect(files[i]);
    }
    PreloadCorpus(files, dialects);
  }

  // Per-file provenance buffers, merged in corpus order at join so the
  // log is independent of which worker processed which file.
  const bool collect_provenance = hooks_.provenance != nullptr;
  std::vector<obs::ProvenanceLog> file_provenance(
      collect_provenance ? files.size() : 0);

  // With rule I7 disabled, IOS addresses enter the trie on demand during
  // file processing — an order-dependent operation. Fall back to one
  // worker so the output still matches the sequential engine exactly.
  const bool i7_enabled = !context_->options().base.disabled_rules.contains(
      core::rules::kSubnetPreload);
  const int threads = i7_enabled ? ResolveThreads(files.size()) : 1;
  std::vector<config::ConfigFile> out(files.size());

  std::vector<std::unique_ptr<EngineWorker>> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.push_back(std::make_unique<EngineWorker>(*context_, *session_));
  }

  // Phase 2: parallel per-file anonymization. The phase window spans the
  // whole pool (open while any worker runs); at threads <= 1 RunWorkers
  // executes inline, so the three phase windows tile the call exactly.
  WorkQueue queue(files.size(), context_->options().batch_size);
  {
    obs::PhaseProfiler::ScopedPhase phase(hooks_.profiler, &tracer_,
                                          "anonymize");
    RunWorkers(threads, [&](int worker_index) {
      EngineWorker& worker = *workers[static_cast<std::size_t>(worker_index)];
      obs::Hooks worker_hooks = hooks_;
      worker_hooks.provenance = nullptr;
      worker.ios->install_hooks(worker_hooks);
      worker.junos->install_hooks(worker_hooks);
      std::size_t begin = 0;
      std::size_t end = 0;
      while (queue.Next(begin, end)) {
        for (std::size_t i = begin; i < end; ++i) {
          core::AnonymizerEngine& engine = worker.ForDialect(dialects[i]);
          if (collect_provenance) {
            obs::Hooks per_file = worker_hooks;
            per_file.provenance = &file_provenance[i];
            engine.install_hooks(per_file);
          }
          out[i] = engine.AnonymizeFile(files[i]);
        }
      }
      worker.ios->SyncMetrics();
      worker.junos->SyncMetrics();
    });
  }

  // Deterministic join: merge per-worker reports/leak records (sums and
  // set unions commute) and concatenate provenance in corpus order.
  {
    obs::PhaseProfiler::ScopedPhase phase(hooks_.profiler, &tracer_, "join");
    for (const auto& worker : workers) {
      report_.Merge(worker->ios->report());
      report_.Merge(worker->junos->report());
      leak_record_.Merge(worker->ios->leak_record());
      leak_record_.Merge(worker->junos->leak_record());
    }
    if (collect_provenance) {
      for (const obs::ProvenanceLog& log : file_provenance) {
        for (const obs::ProvenanceEntry& entry : log.entries()) {
          hooks_.provenance->Record(entry);
        }
      }
    }
    // Workers skip the shared trie's counters (syncing them per worker
    // would double count); they are synced here, once.
    if (hooks_.metrics != nullptr) {
      core::SyncTrieDeltas(session_->state()->ip, synced_ip_, *hooks_.metrics,
                           "");
    }
  }

  // Phase 3 (opt-in): fingerprint defense. Decoy insertion is sequential
  // and corpus-global — it pads equivalence classes across files — so it
  // runs after the join, on the assembled output.
  if (context_->options().defense.k > 1) {
    obs::PhaseProfiler::ScopedPhase phase(hooks_.profiler, &tracer_,
                                          "defend");
    const auto start = std::chrono::steady_clock::now();
    defense::DefenseResult defended = defense::DefendCorpus(
        out, context_->options().defense, session_->salt());
    defense_report_ = defended.report;
    decoy_manifest_ = std::move(defended.manifest);
    session_->MergeDefense(defense_report_.Summary());
    if (hooks_.metrics != nullptr) {
      hooks_.metrics->CounterNamed("defense.decoy_lines")
          .Add(defense_report_.decoy_lines);
      hooks_.metrics->GaugeNamed("defense.target_k")
          .Set(static_cast<std::int64_t>(defense_report_.target_k));
      hooks_.metrics->GaugeNamed("defense.achieved_k")
          .Set(static_cast<std::int64_t>(defense_report_.achieved_k));
      hooks_.metrics->GaugeNamed("defense.overhead_pct")
          .Set(static_cast<std::int64_t>(
              defense_report_.Overhead() * 100.0 + 0.5));
      hooks_.metrics->HistogramNamed("defense.pass_ns")
          .Record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count()));
    }
  } else {
    defense_report_ = {};
    decoy_manifest_ = {};
  }
  return out;
}

void CorpusPipeline::ExportKnownEntities(std::ostream& out) {
  // A throwaway engine over the shared state renders the groupings; the
  // mappings live in the state, so any engine emits the same lines.
  const auto exporter =
      context_->MakeEngine(core::ConfigDialect::kIos, *session_);
  exporter->ExportKnownEntities(out);
}

std::vector<NetworkOutput> AnonymizeNetworkSet(
    const std::vector<NetworkTask>& tasks,
    const core::ServiceContext& set_context) {
  std::vector<NetworkOutput> out(tasks.size());
  if (tasks.empty()) return out;

  // ResolveThreads with no item clamp: the raw budget.
  const int total = set_context.ResolveThreads(0);
  // Slots run whole networks concurrently; each network's own pipeline
  // gets a share of the remaining budget (so total concurrency stays
  // ~= the budget whichever way the work is shaped).
  const int slots = ResolveWorkerCount(total, tasks.size());

  // Shard-aware partitioning: a network's cost tracks its byte size, not
  // its file count (the paper's corpora mix backbone routers at hundreds
  // of KB with access switches at a few KB). Schedule largest-bytes
  // first (LPT) so the straggler network starts earliest, and give each
  // network an inner-thread share proportional to its byte weight among
  // `slots` average concurrent networks.
  std::vector<std::uint64_t> task_bytes(tasks.size(), 0);
  std::uint64_t set_bytes = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (const config::ConfigFile& file : tasks[i].files) {
      task_bytes[i] += file.TextBytes();
    }
    set_bytes += task_bytes[i];
  }
  std::vector<std::size_t> order(tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return task_bytes[a] > task_bytes[b];
                   });
  const auto inner_share = [&](std::size_t i) {
    if (set_bytes == 0) return std::max(1, total / slots);
    const auto weighted = static_cast<int>(
        static_cast<std::uint64_t>(total) * slots * task_bytes[i] /
        set_bytes);
    return std::clamp(weighted, 1, total);
  };

  WorkQueue queue(tasks.size(), 1);
  RunWorkers(slots, [&](int) {
    std::size_t begin = 0;
    std::size_t end = 0;
    while (queue.Next(begin, end)) {
      for (std::size_t rank = begin; rank < end; ++rank) {
        const std::size_t i = order[rank];
        core::ServiceOptions options = tasks[i].options;
        if (options.threads <= 0) options.threads = inner_share(i);
        auto task_context = BuildContext(std::move(options), &set_context);
        task_context->install_hooks(set_context.hooks());
        CorpusPipeline pipe(task_context, task_context->CreateSession());
        out[i].files = pipe.AnonymizeCorpus(tasks[i].files);
        out[i].report = pipe.report();
        out[i].leak_record = pipe.leak_record();
        out[i].defense = pipe.defense_report().Summary();
      }
    }
  });
  return out;
}

}  // namespace confanon::pipeline
