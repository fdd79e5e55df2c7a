// Metrics registry: named counters, gauges, and log-scale latency
// histograms with a lock-free hot path.
//
// The paper's evaluation is quantitative throughout — per-rule fire
// counts (Section 4.2), regexp-rewrite counts (Sections 4.4-4.5), and the
// leak-driven refinement loop (Section 6.1) all need the anonymizer to
// measure itself. This registry is the substrate: instruments are created
// once (under a mutex), after which every Add/Record is a relaxed atomic
// operation on a stable address — safe to hammer from the per-line hot
// path of a multi-million-line corpus, and safe to read from another
// thread while a run is in flight.
//
// Snapshot() freezes the registry into a plain RunMetrics value that can
// be Merge()d across networks/shards and serialized to JSON; that is what
// BENCH_perf.json is built from.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace confanon::obs {

/// Monotonic event count. Relaxed atomics: totals are exact once the
/// writers quiesce, which is all run reporting needs.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (trie node count, live regex DFA states, ...).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Frozen histogram state: what Snapshot() captures and Merge() combines.
/// Percentiles use the log-scale bucket layout described on
/// LatencyHistogram; within the resolved bucket the estimate interpolates
/// linearly, so the error is bounded by the bucket width (< 1/8 of the
/// value with 8 sub-buckets per octave).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // meaningful only when count > 0
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  // kBucketCount entries (or empty)

  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count); }
  /// Nearest-rank-with-interpolation percentile estimate, p in [0, 100].
  /// Returns 0 for an empty histogram.
  double Percentile(double p) const;
  void Merge(const HistogramSnapshot& other);
  void WriteJson(JsonWriter& out) const;
};

/// Log-scale histogram for latency-like values (nanoseconds by
/// convention). Buckets cover the full 64-bit range: one octave per power
/// of two, split into kSubBuckets linear sub-buckets, so relative
/// resolution is constant (~12.5%) from nanoseconds to hours. Record() is
/// two relaxed atomic RMWs plus two relaxed min/max updates — no locks,
/// no allocation.
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 3;  // 8 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kOctaves = 64;
  static constexpr int kBucketCount = kOctaves * kSubBuckets;

  void Record(std::uint64_t value);

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  HistogramSnapshot Snapshot() const;

  /// Maps a value to its bucket index (exposed for tests).
  static int BucketIndex(std::uint64_t value);
  /// Inclusive lower bound of bucket `index`.
  static std::uint64_t BucketLowerBound(int index);

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
};

/// A frozen, mergeable, serializable view of one run's instruments.
/// This is the unit of aggregation across networks (the paper anonymizes
/// 31 of them) and the payload of BENCH_perf.json.
struct RunMetrics {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Field-by-field aggregation: counters add, gauges take the other
  /// side's value when present (last-writer-wins, matching "level"
  /// semantics), histograms merge bucket-wise.
  void Merge(const RunMetrics& other);

  void WriteJson(JsonWriter& out) const;
  std::string ToJson() const;
};

/// Owner of named instruments. Lookup takes a mutex; returned references
/// are stable for the registry's lifetime, so hot paths resolve their
/// instruments once and then touch only atomics.
class MetricsRegistry {
 public:
  Counter& CounterNamed(std::string_view name);
  Gauge& GaugeNamed(std::string_view name);
  LatencyHistogram& HistogramNamed(std::string_view name);

  RunMetrics Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
};

/// One step of a delta sync: adds `current - synced` to the counter
/// "<prefix><name>" and advances `synced` to `current`. The counter is
/// looked up, and so registered, only on a non-zero delta, so a sync
/// never creates a zero-valued counter; repeating it adds nothing. Each
/// writer keeps its own `synced` and pushes its totals at file
/// boundaries, which batches the atomic adds of writers sharing one
/// registry.
inline void SyncCounter(MetricsRegistry& registry, std::string_view prefix,
                        std::string_view name, std::uint64_t current,
                        std::uint64_t& synced) {
  if (current <= synced) return;
  registry.CounterNamed(std::string(prefix).append(name)).Add(current - synced);
  synced = current;
}

}  // namespace confanon::obs
