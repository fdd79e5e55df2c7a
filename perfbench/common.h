// Shared pieces of the perfbench program: clocks and resource probes,
// statistics, the result line, the in-memory span log of the traced
// replay, and seeded corpus generation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "config/document.h"
#include "core/session.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to);

/// User+system CPU seconds of this process (getrusage).
double ProcessCpuSeconds();
/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double ProcessPeakRssMb();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (spilled corpora, span dumps).
  std::string work_dir;
};

/// The benchmark's last stdout line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), {value, std::move(unit)}});
  }
  /// Records a correctness failure (stderr) and marks the run incorrect.
  void Fail(const std::string& what);
};
void PrintResult(const Result& result);

/// What one measured window did, cut into slices: one operation each for
/// the batch workloads, one second each for the daemon. Costs are medians
/// over slices, so a burst of load from other processes on the machine
/// moves one slice rather than the result.
struct Window {
  struct Slice {
    double wall_s = 0;
    double cpu_s = 0;  // of the process doing the work
    std::uint64_t lines = 0;
    std::uint64_t ops = 0;  // batch jobs, corpus calls or HTTP requests
  };
  std::vector<Slice> slices;

  double WallSeconds() const;
};

/// Appends the end-to-end metrics (every workload reports all of them).
/// They are CPU time, set-up time and memory: wall-clock throughput and
/// latency on a shared machine repeat too poorly to gate on, so they are
/// reported by the traced run instead.
void AddEndToEnd(Result& result, double setup_s, const Window& window,
                 double peak_rss_mb);

/// pipeline::MakeServiceContext at `threads`, checked to carry no
/// obs::Hooks: the benchmark measures the engine without instrumentation.
std::shared_ptr<confanon::core::ServiceContext> UntracedContext(int threads);

/// Seconds to build a context (pipeline::MakeServiceContext, which
/// verifies the policy) and create a session: the batch workloads'
/// set-up. They sample it across the window and report the median.
double MeasureSetup(int threads, const std::string& salt);

/// Spans of the traced replay, kept in memory and written out at the
/// end. Layer rows are leaf spans; root spans ("replay") bound the
/// replay wall the rows must tile.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t request = -1;
  };

  /// RAII span; the innermost open span is the parent.
  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name, std::int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

  /// Sum of the durations of every span named `name`, in seconds.
  double TotalSeconds(std::string_view name) const;
  /// Durations of every span named `name`, in microseconds.
  std::vector<double> DurationsUs(std::string_view name) const;
  /// One JSON object per line: name, start_ns, end_ns, parent, request.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::int64_t NowNs() const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Runs `generate(seed)`, and on std::runtime_error (the generator's
/// address plan can overflow on some seeds) retries with seeds derived
/// from `seed`, so every benchmark seed yields an input.
template <typename Generate>
auto WithDerivedSeeds(std::uint64_t seed, Generate generate) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    try {
      return generate(seed + attempt * 0x9E3779B97F4A7C15ull);
    } catch (const std::runtime_error&) {
      if (attempt == 16) throw;
    }
  }
}

/// A generated network rendered to config files.
std::vector<confanon::config::ConfigFile> RenderNetwork(
    std::uint64_t seed, int index, int routers, bool mixed);

std::size_t LineCount(const std::vector<confanon::config::ConfigFile>& files);

/// Files of `want` that `got` does not reproduce byte for byte.
std::size_t DifferingFiles(const std::vector<confanon::config::ConfigFile>& got,
                           const std::vector<confanon::config::ConfigFile>& want);

/// Findings of the two map-free output checks over one network: error
/// findings of audit::ComparePair (pre vs post) and textual (hashed-word)
/// leaks of core::LeakDetector. They are reported as per-layer counts, not
/// gated: the anonymizer fails them on a share of generated inputs for
/// two known reasons (perfbench/layers.json, "known_defects").
struct Defects {
  std::size_t pair_errors = 0;
  std::size_t textual_leaks = 0;
};
Defects FindDefects(const std::vector<confanon::config::ConfigFile>& pre,
                    const std::vector<confanon::config::ConfigFile>& post,
                    const confanon::core::LeakRecord& leaks);

/// The workloads. Untraced runs fill the end-to-end metrics, traced runs
/// the per-layer ones; both check outputs and fill attempted/failed.
void RunMultinetIos(const Options& options, Result& result);
void RunBignetMixed(const Options& options, Result& result);
void RunDaemonTenants(const Options& options, Result& result);

}  // namespace perfbench
