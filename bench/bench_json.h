// Shared BENCH_perf.json emitter for the bench binaries.
//
// The file is one JSON object:
//   { "schema": "confanon-bench-v1", "bench": "<binary>",
//     "meta": { ... scalar run parameters ... },
//     "metrics": <obs::RunMetrics>,   // counters / gauges / histograms
//     "report":  <AnonymizationReport> }
// The per-phase latency histograms ("core.line_ns", "core.file_ns",
// "asn.rewrite_ns", "leak.scan_ns", ...) carry p50/p90/p95/p99 inline;
// the "rule.*" counters in metrics equal the report's "rule_fires" object
// by construction: both come from AnonymizationReport::fires, the
// counters through SyncReportDeltas. See docs/OBSERVABILITY.md.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/report.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace confanon::bench {

inline bool WriteBenchJson(
    const std::string& path, const std::string& bench_name,
    const std::vector<std::pair<std::string, std::int64_t>>& meta,
    const obs::RunMetrics& metrics, const core::AnonymizationReport& report) {
  obs::JsonWriter out;
  out.BeginObject();
  out.Key("schema").Value("confanon-bench-v1");
  out.Key("bench").Value(bench_name);
  out.Key("meta").BeginObject();
  for (const auto& [key, value] : meta) {
    out.Key(key).Value(value);
  }
  out.EndObject();
  out.Key("metrics");
  metrics.WriteJson(out);
  out.Key("report");
  report.WriteJson(out);
  out.EndObject();

  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  file << out.str() << "\n";
  file.close();
  std::printf("wrote %s (%zu metric counters, %zu histograms)\n", path.c_str(),
              metrics.counters.size(), metrics.histograms.size());
  return file.good();
}

/// "--bench-out=PATH" on the command line overrides `default_path`;
/// benches share the BENCH_perf.json default so the CI trajectory always
/// finds one, and pass distinct paths when run back-to-back.
inline std::string BenchOutPath(int argc, char** argv,
                                const std::string& default_path) {
  const std::string flag = "--bench-out=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(flag, 0) == 0) return arg.substr(flag.size());
  }
  return default_path;
}

/// "--threads=N" selects the corpus-pipeline worker count; 0 (and the
/// default when the flag is absent) means hardware concurrency.
inline int BenchThreads(int argc, char** argv, int default_threads = 1) {
  const std::string flag = "--threads=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(flag, 0) == 0) return std::atoi(arg.c_str() + flag.size());
  }
  return default_threads;
}

/// Generic "--NAME=VALUE" lookup ("metrics-listen", "profile-out", ...).
/// Returns an empty string when the flag is absent.
inline std::string BenchStringFlag(int argc, char** argv,
                                   const std::string& name) {
  const std::string flag = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(flag, 0) == 0) return arg.substr(flag.size());
  }
  return {};
}

}  // namespace confanon::bench
