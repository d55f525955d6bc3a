#ifndef CALM_BASE_METRICS_H_
#define CALM_BASE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/json.h"

namespace calm {

// ---------------------------------------------------------------------------
// Metrics registry (see DESIGN.md, "Observability"): labeled counter and
// histogram families with a JSON snapshot. The hot paths of the engine
// (the semi-naive fixpoint, the exhaustive sweeps, the network simulator)
// accumulate into plain locals and flush here at natural boundaries — once
// per fixpoint, per candidate instance, per transition — so instrumentation
// stays well under the <3% overhead budget and can never perturb verdicts.
//
// Thread safety: series lookup takes one registry mutex (callers cache the
// returned reference; series live for the registry's lifetime, so a cached
// reference is valid forever). Counter increments are lock-free sharded
// atomics — concurrent writers land on different cache lines — and reads
// sum the shards, so totals are exact once writers quiesce.
// ---------------------------------------------------------------------------

// A monotonically increasing counter. Increment is wait-free and contention
// -avoiding: each thread writes the shard picked by its thread-local index.
class Counter {
 public:
  static constexpr size_t kShards = 16;  // power of two

  void Increment(uint64_t delta = 1) {
    shards_[ShardIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };

  // Threads are assigned shards round-robin on first use, so a pool of up to
  // kShards workers never shares a shard (beyond that, increments stay
  // correct — fetch_add — just occasionally contended).
  static size_t ShardIndex();

  std::array<Shard, kShards> shards_;
};

// A histogram over uint64 observations with fixed power-of-two bucket
// boundaries: le 1, 2, 4, ..., 2^(kBuckets-2), +inf. Observe is a couple of
// relaxed atomic adds, meant for flush points (per-eval delta sizes, per-run
// transition counts), not per-tuple inner loops.
class Histogram {
 public:
  static constexpr size_t kBuckets = 24;  // last bucket is +inf

  void Observe(uint64_t value) {
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  // The inclusive upper bound of `bucket` (UINT64_MAX for the last).
  static uint64_t BucketBound(size_t bucket);
  static size_t BucketOf(uint64_t value);

  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Sorted (key, value) label pairs identifying one series within a family.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// The process-wide registry. Families are keyed by name per metric kind;
// series within a family by their label set. Lookups are mutex-guarded maps
// — instrumentation sites cache the returned reference (often in a function
// -local static) so the steady state is pure atomic arithmetic.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  static MetricRegistry& Global();

  Counter& GetCounter(std::string_view name, MetricLabels labels = {});
  Histogram& GetHistogram(std::string_view name, MetricLabels labels = {});

  // A deterministic snapshot (families and series in sorted order):
  //   {"counters": [{"name": ..., "labels": {...}, "value": N}, ...],
  //    "histograms": [{"name": ..., "labels": {...}, "count": N, "sum": N,
  //                    "buckets": [{"le": 1, "count": n}, ...]}, ...]}
  // Values are read with relaxed loads; take the snapshot at a quiescent
  // point for exact totals.
  Json Snapshot() const;

  // Zeroes every registered series (registrations and cached references
  // stay valid). Tests and repeated bench sections use this.
  void ResetValues();

 private:
  using SeriesKey = std::pair<std::string, MetricLabels>;

  template <typename T>
  T& GetSeries(std::map<SeriesKey, std::unique_ptr<T>>* family,
               std::string_view name, MetricLabels labels);

  mutable std::mutex mu_;
  std::map<SeriesKey, std::unique_ptr<Counter>> counters_;
  std::map<SeriesKey, std::unique_ptr<Histogram>> histograms_;
};

// Runtime switch for the engine's metric flush points. Off by default: the
// bench --metrics_out flag and the tests turn it on. When off, the
// instrumented code pays one relaxed load per flush site and nothing else.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

}  // namespace calm

#endif  // CALM_BASE_METRICS_H_
