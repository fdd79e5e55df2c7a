#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "audit/audit.h"
#include "core/leak_detector.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "junos/writer.h"
#include "obs/hooks.h"
#include "pipeline/pipeline.h"

namespace perfbench {

using namespace confanon;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ProcessPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Result::Fail(const std::string& what) {
  std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  correct = false;
}

void PrintResult(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct && result.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.first) ? metric.first : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.second + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

double Window::WallSeconds() const {
  double total = 0;
  for (const Slice& slice : slices) total += slice.wall_s;
  return total;
}

void AddEndToEnd(Result& result, double setup_s, const Window& window,
                 double peak_rss_mb) {
  std::vector<double> per_line, per_op;
  for (const Window::Slice& slice : window.slices) {
    per_line.push_back(slice.cpu_s * 1e6 / static_cast<double>(slice.lines));
    per_op.push_back(slice.cpu_s * 1e6 / static_cast<double>(slice.ops));
  }
  result.Add("setup_s", setup_s, "s");
  result.Add("cpu_us_per_line", Median(per_line), "us");
  result.Add("cpu_us_per_req", Median(per_op), "us");
  result.Add("peak_rss_mb", peak_rss_mb, "MB");
}

std::shared_ptr<core::ServiceContext> UntracedContext(int threads) {
  core::ServiceOptions options;
  options.threads = threads;
  auto context = pipeline::MakeServiceContext(std::move(options));
  if (context->hooks().any()) {
    throw std::logic_error("benchmark context has observability hooks");
  }
  return context;
}

double MeasureSetup(int threads, const std::string& salt) {
  const auto start = Clock::now();
  const auto session = UntracedContext(threads)->CreateSession(salt);
  return SecondsBetween(start, Clock::now());
}

SpanLog::Scope::Scope(SpanLog& log, std::string_view name,
                      std::int64_t request)
    : log_(log), index_(static_cast<int>(log.spans_.size())) {
  Span span;
  span.name = std::string(name);
  span.parent = log_.open_.empty() ? -1 : log_.open_.back();
  span.request = request;
  log_.spans_.push_back(std::move(span));
  log_.open_.push_back(index_);
  log_.spans_.back().start_ns = log_.NowNs();
}

SpanLog::Scope::~Scope() {
  log_.spans_[static_cast<std::size_t>(index_)].end_ns = log_.NowNs();
  log_.open_.pop_back();
}

std::int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

double SpanLog::TotalSeconds(std::string_view name) const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total) / 1e9;
}

std::vector<double> SpanLog::DurationsUs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<config::ConfigFile> RenderNetwork(std::uint64_t seed, int index,
                                              int routers, bool mixed) {
  gen::GeneratorParams params;
  params.router_count = routers;
  const gen::NetworkSpec network = WithDerivedSeeds(seed, [&](auto derived) {
    params.seed = derived;
    return gen::GenerateNetwork(params, index);
  });
  std::vector<config::ConfigFile> files;
  files.reserve(network.routers.size());
  for (std::size_t i = 0; i < network.routers.size(); ++i) {
    // Even routers IOS, odd JunOS: the gen_corpus --mixed layout.
    files.push_back(mixed && i % 2 == 1
                        ? junos::WriteJunosConfig(network.routers[i], network)
                        : gen::WriteConfig(network.routers[i], network));
  }
  return files;
}

std::size_t LineCount(const std::vector<config::ConfigFile>& files) {
  std::size_t lines = 0;
  for (const auto& file : files) lines += file.LineCount();
  return lines;
}

std::size_t DifferingFiles(const std::vector<config::ConfigFile>& got,
                           const std::vector<config::ConfigFile>& want) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (i >= got.size() || got[i].lines() != want[i].lines()) ++bad;
  }
  return bad;
}

Defects FindDefects(const std::vector<config::ConfigFile>& pre,
                    const std::vector<config::ConfigFile>& post,
                    const core::LeakRecord& leaks) {
  Defects defects;
  audit::AuditOptions options;
  options.threads = 1;
  for (const audit::Finding& finding :
       audit::ComparePair(pre, post, options).findings) {
    if (finding.severity != audit::Severity::kError) continue;
    std::cerr << "perfbench: pair audit: " << finding.ToString() << "\n";
    ++defects.pair_errors;
  }
  for (const core::LeakFinding& finding : core::LeakDetector::Scan(post, leaks)) {
    if (finding.kind != core::LeakFinding::Kind::kHashedWord) continue;
    if (defects.textual_leaks++ < 3) {
      std::cerr << "perfbench: textual leak of '" << finding.matched
                << "' in " << finding.file << "\n";
    }
  }
  return defects;
}

}  // namespace perfbench
