#include "base/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "base/json.h"
#include "base/thread_pool.h"

namespace calm {
namespace {

// The registry is process-global; every test works against its own uniquely
// named series (the fixture resets values, not families, so parallel ctest
// shards in one binary can't collide on names).
std::string UniqueName(const char* base) {
  static std::atomic<int> n{0};
  return std::string("test.") + base + "." + std::to_string(n++);
}

TEST(CounterTest, IncrementAndValue) {
  Counter& c = MetricRegistry::Global().GetCounter(UniqueName("counter"));
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

// The exactness contract: sharded counters lose nothing — after quiescence
// the total equals the number of increments, at every pool width.
TEST(CounterTest, ExactUnderConcurrency) {
  for (size_t threads : {1u, 2u, 8u}) {
    Counter& c = MetricRegistry::Global().GetCounter(UniqueName("concurrent"));
    constexpr size_t kIncrements = 100000;
    ThreadPool pool(threads);
    pool.ParallelFor(0, kIncrements, [&](size_t i) { c.Increment(i % 3 + 1); });
    uint64_t expected = 0;
    for (size_t i = 0; i < kIncrements; ++i) expected += i % 3 + 1;
    EXPECT_EQ(c.Value(), expected) << threads << " threads";
  }
}

TEST(HistogramTest, PowerOfTwoBuckets) {
  Histogram& h = MetricRegistry::Global().GetHistogram(UniqueName("hist"));
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  h.Observe(1024);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 1030u);
  // 0 and 1 land in the first bucket (le 1), 2 in le-2, 3 in le-4.
  EXPECT_EQ(h.BucketCount(Histogram::BucketOf(0)), 2u);
  EXPECT_EQ(h.BucketCount(Histogram::BucketOf(2)), 1u);
  EXPECT_EQ(h.BucketCount(Histogram::BucketOf(3)), 1u);
  EXPECT_EQ(h.BucketCount(Histogram::BucketOf(1024)), 1u);
  EXPECT_LE(2u, Histogram::BucketBound(Histogram::BucketOf(2)));
}

TEST(HistogramTest, ExactUnderConcurrency) {
  Histogram& h = MetricRegistry::Global().GetHistogram(UniqueName("histc"));
  constexpr size_t kObservations = 50000;
  ThreadPool pool(8);
  pool.ParallelFor(0, kObservations, [&](size_t i) { h.Observe(i % 17); });
  EXPECT_EQ(h.Count(), kObservations);
}

TEST(RegistryTest, SameNameSameSeries) {
  std::string name = UniqueName("same");
  Counter& a = MetricRegistry::Global().GetCounter(name);
  Counter& b = MetricRegistry::Global().GetCounter(name);
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Value(), 1u);
}

TEST(RegistryTest, LabelsDistinguishSeriesAndOrderDoesNot) {
  std::string name = UniqueName("labeled");
  Counter& ab =
      MetricRegistry::Global().GetCounter(name, {{"a", "1"}, {"b", "2"}});
  Counter& ba =
      MetricRegistry::Global().GetCounter(name, {{"b", "2"}, {"a", "1"}});
  Counter& other = MetricRegistry::Global().GetCounter(name, {{"a", "2"}});
  EXPECT_EQ(&ab, &ba);  // label order is not identity
  EXPECT_NE(&ab, &other);
}

TEST(RegistryTest, SeriesRefsStableAcrossGrowth) {
  std::string name = UniqueName("stable");
  Counter& first = MetricRegistry::Global().GetCounter(name);
  first.Increment();
  // Force the registry to grow; the earlier reference must stay valid.
  for (int i = 0; i < 100; ++i) {
    MetricRegistry::Global().GetCounter(name, {{"i", std::to_string(i)}});
  }
  first.Increment();
  EXPECT_EQ(first.Value(), 2u);
}

// Snapshot → Dump → Parse → same numbers: the registry's JSON form survives
// a round trip through the project serializer it is consumed with.
TEST(RegistryTest, SnapshotRoundTripsThroughJson) {
  std::string cname = UniqueName("snapc");
  std::string hname = UniqueName("snaph");
  MetricRegistry::Global().GetCounter(cname, {{"k", "v"}}).Increment(7);
  Histogram& h = MetricRegistry::Global().GetHistogram(hname);
  h.Observe(3);
  h.Observe(300);

  Json snapshot = MetricRegistry::Global().Snapshot();
  Result<Json> reparsed = Json::Parse(snapshot.Dump(2));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();

  bool saw_counter = false;
  for (const Json& c : reparsed->GetArray("counters").value()->items()) {
    if (c.GetString("name").value() != cname) continue;
    saw_counter = true;
    EXPECT_EQ(c.GetUint("value").value(), 7u);
    const Json* labels = c.Find("labels");
    ASSERT_NE(labels, nullptr);
    EXPECT_EQ(labels->GetString("k").value(), "v");
  }
  EXPECT_TRUE(saw_counter);

  bool saw_histogram = false;
  for (const Json& hj : reparsed->GetArray("histograms").value()->items()) {
    if (hj.GetString("name").value() != hname) continue;
    saw_histogram = true;
    EXPECT_EQ(hj.GetUint("count").value(), 2u);
    EXPECT_EQ(hj.GetUint("sum").value(), 303u);
    uint64_t bucket_total = 0;
    for (const Json& b : hj.GetArray("buckets").value()->items()) {
      bucket_total += b.GetUint("count").value();
    }
    EXPECT_EQ(bucket_total, 2u);
  }
  EXPECT_TRUE(saw_histogram);
}

TEST(RegistryTest, SnapshotIsDeterministicallyOrdered) {
  std::string name = UniqueName("order");
  MetricRegistry::Global().GetCounter(name, {{"z", "1"}});
  MetricRegistry::Global().GetCounter(name, {{"a", "1"}});
  Json a = MetricRegistry::Global().Snapshot();
  Json b = MetricRegistry::Global().Snapshot();
  EXPECT_EQ(a.Dump(2), b.Dump(2));
}

TEST(RegistryTest, ResetValuesKeepsFamilies) {
  std::string name = UniqueName("reset");
  Counter& c = MetricRegistry::Global().GetCounter(name);
  c.Increment(5);
  MetricRegistry::Global().ResetValues();
  EXPECT_EQ(c.Value(), 0u);
  // Same series object after the reset.
  EXPECT_EQ(&MetricRegistry::Global().GetCounter(name), &c);
}

TEST(MetricsEnabledTest, DefaultsOffAndToggles) {
  EXPECT_FALSE(MetricsEnabled());
  SetMetricsEnabled(true);
  EXPECT_TRUE(MetricsEnabled());
  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
}

}  // namespace
}  // namespace calm
