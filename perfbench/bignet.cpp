// bignet-mixed: the per-line hot path. One large network of alternating
// IOS/JunOS routers is held in memory; the context (and its policy
// verification) is built once, then each operation is CreateSession plus
// one CorpusPipeline::AnonymizeCorpus call at 4 threads (a fresh session,
// so every operation does the same work).
#include "common.h"
#include "pipeline/pipeline.h"
#include "replay.h"

namespace perfbench {

using namespace confanon;

namespace {

constexpr int kRouters = 1200;
constexpr std::uint64_t kLines = 250000;
constexpr int kThreads = 4;
constexpr std::size_t kMinOps = 5;

struct Op {
  std::vector<config::ConfigFile> files;
  core::LeakRecord leaks;
  double seconds = 0;
};

/// One AnonymizeCorpus over a fresh session; the session and the call
/// are timed.
Op RunOp(const std::shared_ptr<core::ServiceContext>& context,
         const std::string& salt,
         const std::vector<config::ConfigFile>& files) {
  Op op;
  const auto start = Clock::now();
  pipeline::CorpusPipeline pipe(context, context->CreateSession(salt));
  op.files = pipe.AnonymizeCorpus(files);
  op.seconds = SecondsBetween(start, Clock::now());
  op.leaks = pipe.leak_record();
  return op;
}

/// The operation layer by layer on one thread: context, session, call.
std::vector<config::ConfigFile> Replay(
    Replayer& replayer, const std::string& salt,
    const std::vector<config::ConfigFile>& files) {
  const auto context = replayer.MakeContext();
  const auto session = replayer.CreateSession(*context, salt);
  return replayer.AnonymizeCorpus(*context, *session, files);
}

void RunUntraced(const Options& options,
                 const std::vector<config::ConfigFile>& files,
                 const std::string& salt, Result& result) {
  std::vector<double> setup;
  const auto context = UntracedContext(kThreads);
  const Op reference = RunOp(context, salt, files);
  // The sequential reference: the same calls, layer by layer on one
  // thread (the replay, with its spans discarded).
  SpanLog discarded;
  Replayer sequential(discarded);
  const std::size_t reference_bad =
      DifferingFiles(Replay(sequential, salt, files), reference.files);
  if (reference_bad > 0) {
    result.Fail("pipeline output differs from the sequential replay");
  }

  Window window;
  const std::uint64_t lines = LineCount(files);
  while (window.WallSeconds() < options.seconds ||
         window.slices.size() < kMinOps) {
    if (window.slices.size() % 4 == 0) {
      setup.push_back(MeasureSetup(kThreads, salt));
    }
    const double cpu = ProcessCpuSeconds();
    const Op op = RunOp(context, salt, files);
    window.slices.push_back({op.seconds, ProcessCpuSeconds() - cpu, lines, 1});
    const std::size_t bad = DifferingFiles(op.files, reference.files);
    if (bad > 0) result.Fail(std::to_string(bad) + " files differ by op");
    result.attempted += files.size();
    result.failed += std::min<std::uint64_t>(files.size(), bad + reference_bad);
  }
  AddEndToEnd(result, Median(setup), window, ProcessPeakRssMb());
}

void RunTraced(const Options& options,
               const std::vector<config::ConfigFile>& files,
               const std::string& salt, Result& result) {
  LayerValues values;
  const auto context = UntracedContext(kThreads);
  // Cold (fresh process, empty asn::EnumerateLanguage memo) vs warm.
  const Op cold = RunOp(context, salt, files);
  const Op reference = RunOp(context, salt, files);
  values["asn.cold_network_ms"] = cold.seconds * 1e3;
  values["asn.warm_network_ms"] = reference.seconds * 1e3;
  values["pipeline.anonymize_s"] = reference.seconds;
  const Defects defects = FindDefects(files, reference.files, reference.leaks);
  values["audit.pair_errors"] = static_cast<double>(defects.pair_errors);
  values["core.textual_leaks"] = static_cast<double>(defects.textual_leaks);
  std::size_t bad = 0;

  // The replay's work (context, session, corpus call) untraced on one
  // thread: the overhead baseline.
  const auto start = Clock::now();
  const auto single = UntracedContext(1);
  const double single_setup_s = SecondsBetween(start, Clock::now());
  const Op single_op = RunOp(single, salt, files);
  const double untraced_s = single_setup_s + single_op.seconds;
  if (const std::size_t differ = DifferingFiles(single_op.files, reference.files)) {
    result.Fail("one-thread output differs from four-thread output");
    bad += differ;
  }

  SpanLog log;
  Replayer replayer(log);
  std::vector<config::ConfigFile> replayed;
  {
    const SpanLog::Scope root(log, kRootSpan);
    replayed = Replay(replayer, salt, files);
  }
  if (const std::size_t differ = DifferingFiles(replayed, reference.files)) {
    result.Fail("replay differs from the untraced output");
    bad += differ;
  }
  result.attempted += files.size();
  result.failed += std::min<std::uint64_t>(files.size(), bad);

  replayer.Collect(untraced_s, values);
  values["pipeline.parallel_efficiency"] =
      (values["core.anonymize_s"] + values["junos.anonymize_s"]) /
      (kThreads * values["pipeline.anonymize_s"]);
  TokenizePass(files, values);
  log.WriteJsonl(options.work_dir + "/spans-bignet-mixed.jsonl");
  EmitLayerMetrics(values, result);
}

}  // namespace

void RunBignetMixed(const Options& options, Result& result) {
  // A fixed line budget keeps the operation the same size for every seed.
  std::vector<config::ConfigFile> files =
      RenderNetwork(options.seed, 0, kRouters, /*mixed=*/true);
  std::size_t keep = 0;
  for (std::uint64_t lines = 0; keep < files.size() && lines < kLines; ++keep) {
    lines += files[keep].LineCount();
  }
  files.resize(keep);
  const std::string salt = "bignet-" + std::to_string(options.seed);
  if (options.trace) {
    RunTraced(options, files, salt, result);
  } else {
    RunUntraced(options, files, salt, result);
  }
}

}  // namespace perfbench
