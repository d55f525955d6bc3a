#include "base/metrics.h"

#include <algorithm>
#include <bit>

namespace calm {

namespace {

std::atomic<bool> g_metrics_enabled{false};
std::atomic<size_t> g_next_shard{0};

}  // namespace

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

size_t Counter::ShardIndex() {
  thread_local const size_t shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return shard;
}

uint64_t Histogram::BucketBound(size_t bucket) {
  if (bucket >= kBuckets - 1) return UINT64_MAX;
  return uint64_t{1} << bucket;
}

size_t Histogram::BucketOf(uint64_t value) {
  // Least bucket whose inclusive bound covers `value`: 0..1 -> 0, 2 -> 1,
  // 3..4 -> 2, ... Everything past the largest finite bound lands in +inf.
  if (value <= 1) return 0;
  size_t b = static_cast<size_t>(std::bit_width(value - 1));
  return b < kBuckets - 1 ? b : kBuckets - 1;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

template <typename T>
T& MetricRegistry::GetSeries(std::map<SeriesKey, std::unique_ptr<T>>* family,
                             std::string_view name, MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  SeriesKey key{std::string(name), std::move(labels)};
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<T>& slot = (*family)[std::move(key)];
  if (slot == nullptr) slot = std::make_unique<T>();
  return *slot;
}

Counter& MetricRegistry::GetCounter(std::string_view name,
                                    MetricLabels labels) {
  return GetSeries(&counters_, name, std::move(labels));
}

Histogram& MetricRegistry::GetHistogram(std::string_view name,
                                        MetricLabels labels) {
  return GetSeries(&histograms_, name, std::move(labels));
}

namespace {

Json LabelsToJson(const MetricLabels& labels) {
  Json obj = Json::Object();
  for (const auto& [k, v] : labels) obj.Set(k, Json::Str(v));
  return obj;
}

}  // namespace

Json MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json root = Json::Object();

  Json counters = Json::Array();
  for (const auto& [key, counter] : counters_) {
    Json series = Json::Object();
    series.Set("name", Json::Str(key.first));
    series.Set("labels", LabelsToJson(key.second));
    series.Set("value", Json::Uint(counter->Value()));
    counters.Append(std::move(series));
  }
  root.Set("counters", std::move(counters));

  Json histograms = Json::Array();
  for (const auto& [key, histogram] : histograms_) {
    Json series = Json::Object();
    series.Set("name", Json::Str(key.first));
    series.Set("labels", LabelsToJson(key.second));
    series.Set("count", Json::Uint(histogram->Count()));
    series.Set("sum", Json::Uint(histogram->Sum()));
    Json buckets = Json::Array();
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      uint64_t n = histogram->BucketCount(b);
      if (n == 0) continue;  // sparse: empty buckets carry no information
      Json bucket = Json::Object();
      uint64_t bound = Histogram::BucketBound(b);
      bucket.Set("le", bound == UINT64_MAX ? Json::Str("inf")
                                           : Json::Uint(bound));
      bucket.Set("count", Json::Uint(n));
      buckets.Append(std::move(bucket));
    }
    series.Set("buckets", std::move(buckets));
    histograms.Append(std::move(series));
  }
  root.Set("histograms", std::move(histograms));
  return root;
}

void MetricRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, c] : counters_) c->Reset();
  for (auto& [key, h] : histograms_) h->Reset();
}

}  // namespace calm
