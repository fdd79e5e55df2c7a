// SCALE — reproduces the paper's headline dataset scale (Sections 1, 6.1):
// "7655 routers in 31 backbone and enterprise networks", "4.3 million
// lines of configuration", "more than 200 different IOS versions" — and
// shows the anonymizer handles that volume in interactive time.
//
// The full run (scale=1.0) generates ~7.6k routers and anonymizes every
// network. Default is scale=0.25 to keep `for b in bench/*; do $b; done`
// quick; pass a scale factor as argv[1] for the full reproduction:
//
//   bench_scale 1.0
//
// Live observability (both optional):
//   --metrics-listen=HOST:PORT  serve Prometheus /metrics + /healthz
//                               for the duration of the run (PORT 0
//                               picks an ephemeral port, printed)
//   --profile-out=FILE          write a flamegraph.pl-compatible folded
//                               stack profile and print the per-phase
//                               wall/IPC table after the run
//
// Disk round-trip mode:
//   --io-dir=DIR                spill the generated corpus to DIR before
//                               the measured window, then measure the
//                               full paper workflow — ingest (mmap-backed
//                               reads) -> anonymize -> audit -> emit
//                               (batched writes) — populating the io.*
//                               counters and the ingest/emit phases.
//                               Without it the corpus stays in memory and
//                               only the anonymize/audit phases run.
//                               Each router is spilled to
//                               in-<network>/<index>-<hostname>.cfg; the
//                               run exits 1 if the lines read back differ
//                               from the lines generated.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>

#include "audit/audit.h"
#include "bench_json.h"
#include "config/dialect.h"
#include "config/document.h"
#include "util/io.h"
#include "core/anonymizer.h"
#include "core/leak_detector.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "obs/export.h"
#include "obs/exposition.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "pipeline/pipeline.h"

namespace {

// Touch every metric family the run will populate so the first /metrics
// scrape — possibly before any file is anonymized — already exposes the
// full schema (Prometheus treats a family appearing mid-run as a new
// series; pre-registration keeps dashboards stable from t=0).
void PreregisterFamilies(confanon::obs::MetricsRegistry& registry) {
  registry.HistogramNamed("core.line_ns");
  registry.HistogramNamed("core.file_ns");
  registry.HistogramNamed("core.tokenize_ns");
  registry.CounterNamed("ipanon.cache_hits");
  registry.CounterNamed("ipanon.cache_misses");
  registry.CounterNamed("ipanon.preloaded_addresses");
  registry.GaugeNamed("ipanon.trie_nodes");
  registry.CounterNamed("audit.files");
  registry.CounterNamed("audit.findings");
  registry.HistogramNamed("audit.scan_ns");
  registry.CounterNamed("leak.lines_scanned");
  registry.CounterNamed("leak.findings");
  registry.HistogramNamed("leak.scan_ns");
  registry.CounterNamed("io.bytes_read");
  registry.CounterNamed("io.read_ns");
  registry.CounterNamed("io.mmap_files");
  registry.CounterNamed("io.bytes_written");
  registry.CounterNamed("io.write_ns");
  registry.HistogramNamed("scale.lines_per_s");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace confanon;
  const double scale =
      argc > 1 && argv[1][0] != '-' ? std::atof(argv[1]) : 0.25;
  const std::string out_path =
      bench::BenchOutPath(argc, argv, "BENCH_perf.json");
  const int threads = bench::BenchThreads(argc, argv, 1);
  const std::string metrics_listen =
      bench::BenchStringFlag(argc, argv, "metrics-listen");
  const std::string profile_out =
      bench::BenchStringFlag(argc, argv, "profile-out");
  const std::string io_dir = bench::BenchStringFlag(argc, argv, "io-dir");

  gen::GeneratorParams params;
  params.seed = 765531;
  const int network_count = 31;
  const int total_routers = static_cast<int>(7655 * scale);

  std::printf("== SCALE: dataset-scale anonymization (Sections 1, 6.1) ==\n");
  std::printf("scale %.2f: targeting %d routers across %d networks "
              "(%d worker thread%s shared across networks)\n\n",
              scale, total_routers, network_count, threads,
              threads == 1 ? "" : "s");

  const auto t0 = std::chrono::steady_clock::now();
  const auto corpus =
      gen::GenerateCorpus(params, network_count, total_routers);
  const auto gen_seconds = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();

  std::size_t routers = 0, lines = 0;
  std::set<std::string> versions;
  std::size_t textual_leaks = 0;
  std::size_t audit_findings = 0;
  std::uint64_t words_hashed = 0, asns_mapped = 0, addresses_mapped = 0;
  obs::MetricsRegistry registry;
  PreregisterFamilies(registry);
  core::AnonymizationReport merged_report;

  // Live exposition: snapshots are scrape-safe, so the server runs for
  // the whole anonymization window on its own thread.
  obs::SnapshotExporter exporter(&registry);
  obs::ExpositionServer::Options listen_options;
  std::unique_ptr<obs::ExpositionServer> live_server;
  if (!metrics_listen.empty()) {
    if (!obs::ExpositionServer::ParseListenSpec(
            metrics_listen, listen_options.host, listen_options.port)) {
      std::fprintf(stderr, "bench_scale: bad --metrics-listen spec '%s' "
                           "(want HOST:PORT)\n",
                   metrics_listen.c_str());
      return 1;
    }
    live_server = std::make_unique<obs::ExpositionServer>(
        listen_options,
        [&exporter] { return obs::RenderPrometheus(exporter.Capture()); });
    std::string error;
    if (!live_server->Start(&error)) {
      std::fprintf(stderr, "bench_scale: --metrics-listen failed: %s\n",
                   error.c_str());
      return 1;
    }
    std::printf("serving /metrics and /healthz on http://%s:%u/\n\n",
                live_server->host().c_str(), live_server->port());
  }

  // Phase profiler: always brackets the pipeline phases (cheap); span
  // buffering for the folded flamegraph profile only when requested —
  // feeding the trace sink makes every engine emit file/rule spans.
  obs::PhaseProfiler profiler;

  // All networks run concurrently through AnonymizeNetworkSet: one
  // pipeline (one shared mapping) per network, `threads` worker threads
  // shared across the whole set. threads=1 is the sequential baseline
  // (byte-identical by the per-network determinism guarantee).
  std::vector<pipeline::NetworkTask> tasks;
  tasks.reserve(static_cast<std::size_t>(network_count));
  for (int i = 0; i < network_count; ++i) {
    const auto& network = corpus[static_cast<std::size_t>(i)];
    for (const auto& router : network.routers) {
      versions.insert(config::MakeDialect(router.dialect).version_string);
    }
    pipeline::NetworkTask task;
    task.options.base.salt = "scale-" + std::to_string(i);
    task.files = gen::WriteNetworkConfigs(network);
    routers += task.files.size();
    for (const auto& file : task.files) lines += file.LineCount();
    tasks.push_back(std::move(task));
  }

  // Disk round-trip mode: spill the rendered corpus outside the measured
  // window, so the window starts from bytes on disk (ingest) and ends
  // with bytes on disk (emit) — the paper-scale I/O path the io.*
  // counters instrument.
  std::vector<std::vector<std::string>> input_paths;
  if (!io_dir.empty()) {
    input_paths.resize(tasks.size());
    util::BufferedWriter spill;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const auto dir =
          std::filesystem::path(io_dir) / ("in-" + std::to_string(i));
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        std::fprintf(stderr, "bench_scale: cannot create %s: %s\n",
                     dir.string().c_str(), ec.message().c_str());
        return 1;
      }
      input_paths[i].reserve(tasks[i].files.size());
      for (const auto& file : tasks[i].files) {
        // Generated hostnames can repeat within a network; the file's
        // index keeps every router its own file on disk.
        const std::string path =
            (dir / (std::to_string(input_paths[i].size()) + "-" +
                    file.name() + ".cfg"))
                .string();
        std::string error;
        if (!spill.Open(path, &error)) {
          std::fprintf(stderr, "bench_scale: %s\n", error.c_str());
          return 1;
        }
        file.AppendTo(spill);
        if (!spill.Close()) {
          std::fprintf(stderr, "bench_scale: %s\n", spill.error().c_str());
          return 1;
        }
        input_paths[i].push_back(path);
      }
      tasks[i].files.clear();  // re-read inside the measured window
    }
  }

  const auto t1 = std::chrono::steady_clock::now();
  if (!io_dir.empty()) {
    const obs::PhaseProfiler::ScopedPhase ingest_phase(&profiler, nullptr,
                                                       "ingest");
    std::uint64_t bytes_read = 0, read_ns = 0, mmap_files = 0;
    std::size_t lines_read = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      tasks[i].files.reserve(input_paths[i].size());
      for (const std::string& path : input_paths[i]) {
        std::string error;
        auto contents = util::ReadFileContents(path, &error);
        if (!contents) {
          std::fprintf(stderr, "bench_scale: %s\n", error.c_str());
          return 1;
        }
        bytes_read += contents->view.size();
        read_ns += contents->read_ns;
        if (contents->mapped) ++mmap_files;
        tasks[i].files.push_back(config::ConfigFile::FromBacking(
            std::filesystem::path(path).stem().string(), contents->view,
            std::move(contents->backing)));
        lines_read += tasks[i].files.back().LineCount();
      }
    }
    if (lines_read != lines) {
      std::fprintf(stderr,
                   "bench_scale: ingested %zu lines from %s, generated %zu\n",
                   lines_read, io_dir.c_str(), lines);
      return 1;
    }
    registry.CounterNamed("io.bytes_read").Add(bytes_read);
    registry.CounterNamed("io.read_ns").Add(read_ns);
    registry.CounterNamed("io.mmap_files").Add(mmap_files);
  }
  // The set context verifies the policy once; every network with the
  // same policy inputs takes over its verdict (see AnonymizeNetworkSet).
  std::shared_ptr<core::ServiceContext> set_context;
  {
    const obs::PhaseProfiler::ScopedPhase context_phase(&profiler, nullptr,
                                                        "context");
    core::ServiceOptions set_options;
    set_options.threads = threads;
    set_context = pipeline::MakeServiceContext(std::move(set_options));
  }
  obs::Hooks set_hooks;
  set_hooks.metrics = &registry;
  set_hooks.profiler = &profiler;
  if (!profile_out.empty()) set_hooks.trace = &profiler;
  set_context->install_hooks(set_hooks);
  const auto results = pipeline::AnonymizeNetworkSet(tasks, *set_context);

  // Post-pass over each network's output: residue audit (the "audit"
  // phase, fanned out over the worker pool) and the leak scan.
  audit::AuditOptions audit_options;
  audit_options.threads = threads;
  audit_options.metrics = &registry;
  audit_options.profiler = &profiler;
  for (const auto& result : results) {
    merged_report.Merge(result.report);
    words_hashed += result.report.words_hashed;
    asns_mapped += result.report.asns_mapped;
    addresses_mapped += result.report.addresses_mapped;
    audit_findings +=
        audit::LintCorpus(result.files, audit_options).findings.size();
    obs::PhaseProfiler::ScopedPhase leak_phase(&profiler, nullptr,
                                               "leak-scan");
    for (const auto& finding :
         core::LeakDetector::Scan(result.files, result.leak_record,
                                  &registry)) {
      if (finding.kind == core::LeakFinding::Kind::kHashedWord) {
        ++textual_leaks;
      }
    }
  }
  // Egress leg of the round trip: anonymized output back to disk through
  // the batched writer, inside the measured window.
  if (!io_dir.empty()) {
    const obs::PhaseProfiler::ScopedPhase emit_phase(&profiler, nullptr,
                                                     "emit");
    util::BufferedWriter writer;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto dir =
          std::filesystem::path(io_dir) / ("out-" + std::to_string(i));
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        std::fprintf(stderr, "bench_scale: cannot create %s: %s\n",
                     dir.string().c_str(), ec.message().c_str());
        return 1;
      }
      for (const auto& file : results[i].files) {
        std::string error;
        if (!writer.Open((dir / (file.name() + ".cfg")).string(), &error)) {
          std::fprintf(stderr, "bench_scale: %s\n", error.c_str());
          return 1;
        }
        file.AppendTo(writer);
        if (!writer.Close()) {
          std::fprintf(stderr, "bench_scale: %s\n", writer.error().c_str());
          return 1;
        }
      }
    }
    registry.CounterNamed("io.bytes_written").Add(writer.bytes_written());
    registry.CounterNamed("io.write_ns").Add(writer.write_ns());
  }
  const auto t2 = std::chrono::steady_clock::now();
  const double anonymize_seconds =
      std::chrono::duration<double>(t2 - t1).count();
  // One sample per run: the bench gate reads this back as the p50 of a
  // single-entry histogram, giving BENCH_scale.json a throughput metric
  // in the same shape bench_diff.py already consumes.
  registry.HistogramNamed("scale.lines_per_s")
      .Record(static_cast<std::uint64_t>(
          static_cast<double>(lines) / anonymize_seconds));

  std::printf("%-34s %12s %12s\n", "metric", "paper", "measured");
  std::printf("%-34s %12s %12zu\n", "networks", "31", corpus.size());
  std::printf("%-34s %12s %12zu\n", "routers", "7655", routers);
  std::printf("%-34s %12s %12zu\n", "config lines", "4.3M", lines);
  std::printf("%-34s %12s %12zu\n", "distinct IOS versions", "200+",
              versions.size());
  std::printf("%-34s %12s %12s\n", "textual leaks after one pass", "0*",
              std::to_string(textual_leaks).c_str());
  std::printf("\ngenerated in %.1f s; anonymized %zu lines in %.1f s "
              "(%.0f lines/s); hashed %llu "
              "words, mapped %llu ASNs, %llu addresses\n",
              gen_seconds, lines, anonymize_seconds,
              static_cast<double>(lines) / anonymize_seconds,
              static_cast<unsigned long long>(words_hashed),
              static_cast<unsigned long long>(asns_mapped),
              static_cast<unsigned long long>(addresses_mapped));
  std::printf("(* the paper needed <5 operator iterations; our full rule "
              "set is the converged state)\n");
  std::printf("audit: %zu residue findings across %zu networks\n",
              audit_findings, results.size());

  // Phase profile: always print the table; write folded stacks when
  // requested. Coverage = phase wall over the measured window — at
  // threads=1 the phases tile the window, so this should sit near 100%
  // (CI fails a 1-thread run below 90%, read from meta.phase_coverage_pct).
  double phase_coverage_pct = 0.0;
  {
    const obs::PhaseProfiler::Profile profile = profiler.Finish();
    const double window_ns =
        std::chrono::duration<double, std::nano>(t2 - t1).count();
    phase_coverage_pct =
        static_cast<double>(profile.PhaseWallNsTotal()) / window_ns * 100.0;
    std::printf("\n%s", obs::PhaseProfiler::RenderTable(profile).c_str());
    std::printf("phase coverage: %.1f%% of the %.2fs anonymize window\n",
                phase_coverage_pct, window_ns / 1e9);
    if (!profile_out.empty()) {
      std::ofstream folded(profile_out, std::ios::trunc);
      if (folded) {
        obs::PhaseProfiler::WriteFolded(profile, folded);
        std::printf("wrote %s (%zu folded stacks; feed to flamegraph.pl)\n",
                    profile_out.c_str(), profile.spans.size());
      } else {
        std::fprintf(stderr, "bench_scale: cannot write %s\n",
                     profile_out.c_str());
      }
    }
  }
  if (live_server != nullptr) {
    std::printf("served %llu /metrics requests\n",
                static_cast<unsigned long long>(
                    live_server->requests_served()));
    live_server->Stop();
  }

  const bool wrote = bench::WriteBenchJson(
      out_path, "bench_scale",
      {{"scale_percent", static_cast<std::int64_t>(scale * 100.0)},
       {"networks", static_cast<std::int64_t>(corpus.size())},
       {"routers", static_cast<std::int64_t>(routers)},
       {"lines", static_cast<std::int64_t>(lines)},
       {"threads", static_cast<std::int64_t>(threads)},
       {"anonymize_ms",
        static_cast<std::int64_t>(anonymize_seconds * 1000.0)},
       {"phase_coverage_pct", static_cast<std::int64_t>(phase_coverage_pct)}},
      registry.Snapshot(), merged_report);

  const bool ok = wrote && textual_leaks == 0 && versions.size() >= 100;
  std::printf("\nresult: %s\n", ok ? "REPRODUCED" : "MISMATCH");
  return ok ? 0 : 1;
}
