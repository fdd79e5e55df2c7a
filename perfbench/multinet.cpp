// multinet-ios: the paper's dataset shape and the operator's batch
// workflow. 31 generated IOS networks at 0.3x paper scale are spilled to
// disk before the window; one job is ingest -> AnonymizeNetworkSet ->
// per-network residue lint + leak scan -> emit, at a 4-thread budget.
#include <filesystem>

#include "audit/audit.h"
#include "common.h"
#include "core/anonymizer.h"
#include "core/leak_detector.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "pipeline/pipeline.h"
#include "replay.h"
#include "util/io.h"

namespace perfbench {

using namespace confanon;
namespace fs = std::filesystem;

namespace {

constexpr int kNetworks = 31;
constexpr int kRouters = 2296;  // 0.3 x the paper's 7655
constexpr int kThreads = 4;
constexpr std::size_t kMinJobs = 3;

struct Corpus {
  std::vector<std::vector<config::ConfigFile>> pre;
  std::vector<std::vector<std::string>> paths;
  std::vector<std::string> salts;
  fs::path dir;
  std::uint64_t lines = 0;
  std::uint64_t files = 0;
};

void Spill(const config::ConfigFile& file, const std::string& path,
           util::BufferedWriter& writer) {
  std::string error;
  if (!writer.Open(path, &error)) throw std::runtime_error(error);
  file.AppendTo(writer);
  if (!writer.Close()) throw std::runtime_error(writer.error());
}

Corpus Generate(const Options& options) {
  Corpus corpus;
  corpus.dir = fs::path(options.work_dir) / "multinet-ios";
  fs::remove_all(corpus.dir);
  const auto networks = WithDerivedSeeds(options.seed, [](auto seed) {
    gen::GeneratorParams params;
    params.seed = seed;
    return gen::GenerateCorpus(params, kNetworks, kRouters);
  });
  util::BufferedWriter writer;
  for (std::size_t i = 0; i < networks.size(); ++i) {
    // Generated hostnames can repeat within a network; a running index
    // keeps every router its own file on disk.
    corpus.pre.emplace_back();
    for (const auto& file : gen::WriteNetworkConfigs(networks[i])) {
      const std::string name =
          std::to_string(corpus.pre.back().size()) + "-" + file.name();
      corpus.pre.back().push_back(
          config::ConfigFile::FromText(name, file.ToText()));
    }
    corpus.salts.push_back("multinet-" + std::to_string(options.seed) + "-" +
                           std::to_string(i));
    const fs::path in = corpus.dir / ("in-" + std::to_string(i));
    fs::create_directories(in);
    fs::create_directories(corpus.dir / ("out-" + std::to_string(i)));
    corpus.paths.emplace_back();
    for (const config::ConfigFile& file : corpus.pre.back()) {
      corpus.paths.back().push_back((in / (file.name() + ".cfg")).string());
      Spill(file, corpus.paths.back().back(), writer);
    }
    corpus.lines += LineCount(corpus.pre.back());
    corpus.files += corpus.pre.back().size();
  }
  return corpus;
}

/// util::ReadFileContents ingest of one network's spilled files.
std::vector<config::ConfigFile> Ingest(const std::vector<std::string>& paths,
                                       std::uint64_t& bytes) {
  std::vector<config::ConfigFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    std::string error;
    auto contents = util::ReadFileContents(path, &error);
    if (!contents) throw std::runtime_error(error);
    bytes += contents->view.size();
    files.push_back(config::ConfigFile::FromBacking(
        fs::path(path).stem().string(), contents->view,
        std::move(contents->backing)));
  }
  return files;
}

/// util::BufferedWriter emit of one network's output.
std::uint64_t Emit(const Corpus& corpus, std::size_t network,
                   const std::vector<config::ConfigFile>& files,
                   util::BufferedWriter& writer) {
  const std::uint64_t before = writer.bytes_written();
  const fs::path out = corpus.dir / ("out-" + std::to_string(network));
  for (const config::ConfigFile& file : files) {
    Spill(file, (out / (file.name() + ".cfg")).string(), writer);
  }
  return writer.bytes_written() - before;
}

struct JobOutput {
  std::vector<pipeline::NetworkOutput> networks;
  std::size_t textual_leaks = 0;
};

/// One untraced batch job over the whole corpus.
JobOutput RunJob(const Corpus& corpus, const core::ServiceContext& set_context,
                 int threads) {
  std::vector<pipeline::NetworkTask> tasks(corpus.paths.size());
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].options.base.salt = corpus.salts[i];
    tasks[i].files = Ingest(corpus.paths[i], bytes);
  }
  JobOutput job;
  job.networks = pipeline::AnonymizeNetworkSet(tasks, set_context);
  audit::AuditOptions audit_options;
  audit_options.threads = threads;
  util::BufferedWriter writer;
  for (std::size_t i = 0; i < job.networks.size(); ++i) {
    const auto& network = job.networks[i];
    audit::LintCorpus(network.files, audit_options);
    for (const auto& finding :
         core::LeakDetector::Scan(network.files, network.leak_record)) {
      if (finding.kind == core::LeakFinding::Kind::kHashedWord) {
        ++job.textual_leaks;
      }
    }
  }
  for (std::size_t i = 0; i < job.networks.size(); ++i) {
    Emit(corpus, i, job.networks[i].files, writer);
  }
  return job;
}

/// Files of `job` that differ from the reference output.
std::size_t Mismatches(const JobOutput& job, const JobOutput& reference) {
  std::size_t bad = 0;
  for (std::size_t n = 0; n < reference.networks.size(); ++n) {
    bad += DifferingFiles(job.networks[n].files, reference.networks[n].files);
  }
  return bad;
}

/// Files of the reference output that differ from the sequential
/// engine: a standalone core::Anonymizer::AnonymizeNetwork per network.
std::size_t SequentialMismatches(const Corpus& corpus,
                                 const JobOutput& reference) {
  std::size_t bad = 0;
  for (std::size_t n = 0; n < reference.networks.size(); ++n) {
    core::AnonymizerOptions engine_options;
    engine_options.salt = corpus.salts[n];
    core::Anonymizer engine(engine_options);
    bad += DifferingFiles(reference.networks[n].files,
                          engine.AnonymizeNetwork(corpus.pre[n]));
  }
  return bad;
}

/// The emitted files on disk must be the reference output, byte for byte.
std::size_t CheckEmitted(const Corpus& corpus, const JobOutput& reference) {
  std::size_t bad = 0;
  for (std::size_t n = 0; n < reference.networks.size(); ++n) {
    const fs::path out = corpus.dir / ("out-" + std::to_string(n));
    for (const config::ConfigFile& file : reference.networks[n].files) {
      std::string error;
      const auto text =
          util::ReadFileFully((out / (file.name() + ".cfg")).string(), &error);
      if (!text || *text != file.ToText()) ++bad;
    }
  }
  return bad;
}

void RunUntraced(const Options& options, const Corpus& corpus,
                 Result& result) {
  std::vector<double> setup;
  const auto set_context = UntracedContext(kThreads);

  // Warm-up job: fills the page cache and process-wide memos (the cold
  // first network is reported by the traced run), and is the reference.
  const JobOutput reference = RunJob(corpus, *set_context, kThreads);
  const std::size_t reference_bad = SequentialMismatches(corpus, reference);
  if (reference_bad > 0) {
    result.Fail(std::to_string(reference_bad) +
                " files differ from the sequential engine");
  }

  Window window;
  while (window.WallSeconds() < options.seconds ||
         window.slices.size() < kMinJobs) {
    setup.push_back(MeasureSetup(kThreads, corpus.salts[0]));
    const double cpu = ProcessCpuSeconds();
    const auto start = Clock::now();
    const JobOutput job = RunJob(corpus, *set_context, kThreads);
    const double elapsed = SecondsBetween(start, Clock::now());
    window.slices.push_back(
        {elapsed, ProcessCpuSeconds() - cpu, corpus.lines, 1});
    const std::size_t bad = Mismatches(job, reference);
    if (bad > 0) result.Fail(std::to_string(bad) + " files differ by job");
    result.attempted += corpus.files;
    result.failed += std::min<std::uint64_t>(corpus.files, bad + reference_bad);
  }
  if (const std::size_t bad = CheckEmitted(corpus, reference); bad > 0) {
    result.Fail(std::to_string(bad) + " emitted files differ");
    result.failed += bad;
  }
  AddEndToEnd(result, Median(setup), window, ProcessPeakRssMb());
}

void RunTraced(const Options& options, const Corpus& corpus,
               Result& result) {
  LayerValues values;
  // Cold vs warm: the first network in this fresh process runs with an
  // empty asn::EnumerateLanguage memo; the rerun is warm.
  for (const char* key : {"asn.cold_network_ms", "asn.warm_network_ms"}) {
    const auto context = UntracedContext(1);
    pipeline::CorpusPipeline pipe(context,
                                  context->CreateSession(corpus.salts[0]));
    const auto start = Clock::now();
    pipe.AnonymizeCorpus(corpus.pre[0]);
    values[key] = SecondsBetween(start, Clock::now()) * 1e3;
  }

  // The workload as the untraced run does it, then on one thread (the
  // overhead baseline), then the traced replay.
  const auto set_context = UntracedContext(kThreads);
  auto start = Clock::now();
  const JobOutput reference = RunJob(corpus, *set_context, kThreads);
  values["pipeline.anonymize_s"] = SecondsBetween(start, Clock::now());
  std::size_t bad = 0;
  for (std::size_t n = 0; n < reference.networks.size(); ++n) {
    const Defects defects =
        FindDefects(corpus.pre[n], reference.networks[n].files,
                    reference.networks[n].leak_record);
    values["audit.pair_errors"] += static_cast<double>(defects.pair_errors);
    values["core.textual_leaks"] += static_cast<double>(defects.textual_leaks);
  }

  const auto single_context = UntracedContext(1);
  start = Clock::now();
  const JobOutput single = RunJob(corpus, *single_context, 1);
  const double untraced_s = SecondsBetween(start, Clock::now());
  bad += Mismatches(single, reference);

  SpanLog log;
  Replayer replayer(log);
  std::vector<std::vector<config::ConfigFile>> replayed(corpus.pre.size());
  std::uint64_t read_bytes = 0, write_bytes = 0, audit_files = 0,
                audit_findings = 0, leak_lines = 0, textual_leaks = 0;
  {
    const SpanLog::Scope root(log, kRootSpan);
    std::vector<std::vector<config::ConfigFile>> inputs(corpus.paths.size());
    {
      const SpanLog::Scope span(log, "util.read");
      for (std::size_t n = 0; n < inputs.size(); ++n) {
        inputs[n] = Ingest(corpus.paths[n], read_bytes);
      }
    }
    std::vector<core::LeakRecord> leaks(inputs.size());
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      const auto context = replayer.MakeContext();
      const auto session = replayer.CreateSession(*context, corpus.salts[n]);
      replayed[n] =
          replayer.AnonymizeCorpus(*context, *session, inputs[n], &leaks[n]);
    }
    audit::AuditOptions audit_options;
    audit_options.threads = 1;
    for (std::size_t n = 0; n < replayed.size(); ++n) {
      {
        const SpanLog::Scope span(log, "audit.lint");
        const audit::AuditResult lint =
            audit::LintCorpus(replayed[n], audit_options);
        audit_files += lint.files_scanned;
        audit_findings += lint.findings.size();
      }
      const SpanLog::Scope span(log, "core.leak_scan");
      for (const auto& finding :
           core::LeakDetector::Scan(replayed[n], leaks[n])) {
        if (finding.kind == core::LeakFinding::Kind::kHashedWord) {
          ++textual_leaks;
        }
      }
      leak_lines += LineCount(replayed[n]);
    }
    const SpanLog::Scope span(log, "util.write");
    util::BufferedWriter writer;
    for (std::size_t n = 0; n < replayed.size(); ++n) {
      write_bytes += Emit(corpus, n, replayed[n], writer);
    }
  }
  for (std::size_t n = 0; n < replayed.size(); ++n) {
    if (const std::size_t differ =
            DifferingFiles(replayed[n], reference.networks[n].files)) {
      result.Fail("replay of network " + std::to_string(n) +
                  " differs from the untraced output");
      bad += differ;
    }
  }
  if (textual_leaks != reference.textual_leaks) {
    result.Fail("replay leak scan disagrees with the untraced one");
  }
  result.attempted += corpus.files;
  result.failed += std::min<std::uint64_t>(corpus.files, bad);

  replayer.Collect(untraced_s, values);
  values["audit.lint_s"] = log.TotalSeconds("audit.lint");
  values["audit.files"] = static_cast<double>(audit_files);
  values["audit.findings"] = static_cast<double>(audit_findings);
  values["core.leak_scan_s"] = log.TotalSeconds("core.leak_scan");
  values["core.leak_lines"] = static_cast<double>(leak_lines);
  values["util.read_s"] = log.TotalSeconds("util.read");
  values["util.read_mb"] = static_cast<double>(read_bytes) / (1 << 20);
  values["util.write_s"] = log.TotalSeconds("util.write");
  values["util.write_mb"] = static_cast<double>(write_bytes) / (1 << 20);
  values["pipeline.parallel_efficiency"] =
      (values["core.anonymize_s"] + values["junos.anonymize_s"]) /
      (kThreads * values["pipeline.anonymize_s"]);
  std::vector<config::ConfigFile> all;
  for (const auto& network : corpus.pre) {
    all.insert(all.end(), network.begin(), network.end());
  }
  TokenizePass(all, values);
  log.WriteJsonl(options.work_dir + "/spans-multinet-ios.jsonl");
  EmitLayerMetrics(values, result);
}

}  // namespace

void RunMultinetIos(const Options& options, Result& result) {
  const Corpus corpus = Generate(options);
  if (options.trace) {
    RunTraced(options, corpus, result);
  } else {
    RunUntraced(options, corpus, result);
  }
  fs::remove_all(corpus.dir);
}

}  // namespace perfbench
