#include "base/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "base/json.h"
#include "base/metrics.h"
#include "monotonicity/checker.h"
#include "queries/graph_queries.h"

namespace calm {
namespace {

using monotonicity::Counterexample;
using monotonicity::ExhaustiveOptions;
using monotonicity::FindViolation;
using monotonicity::MonotonicityClass;

// Shared-buffer hygiene: every test starts from an empty trace and leaves
// tracing disabled.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::SetEnabled(false);
    Trace::Reset();
  }
  void TearDown() override {
    Trace::SetEnabled(false);
    Trace::SetCapacity(size_t{1} << 20);
    Trace::Reset();
  }
};

// The export with the nondeterministic fields (timestamps, durations)
// removed: everything left — names, ids, parents, args, order — must be
// byte-identical across runs of the same single-threaded code.
std::string DeterministicPart(const Json& exported) {
  Json out = Json::Array();
  for (const Json& e : exported.Find("traceEvents")->items()) {
    Json copy = Json::Object();
    for (const auto& [key, value] : e.members()) {
      if (key == "ts" || key == "dur") continue;
      copy.Set(key, value);
    }
    out.Append(std::move(copy));
  }
  return out.Dump(-1);
}

void RecordSampleSpans() {
  TraceSpan outer("outer", {{"k", 1}});
  {
    TraceSpan inner("inner");
    inner.Arg("depth", 2);
    Trace::Instant("tick", {{"n", 7}});
  }
  TraceSpan sibling("inner");
}

TEST_F(TraceTest, DisabledRecordsNothing) {
  ASSERT_FALSE(TracingEnabled());
  RecordSampleSpans();
  EXPECT_EQ(Trace::EventCount(), 0u);
  EXPECT_EQ(Trace::SpanCount("outer"), 0u);
}

TEST_F(TraceTest, RecordsSpansAndInstants) {
  Trace::SetEnabled(true);
  RecordSampleSpans();
  EXPECT_EQ(Trace::EventCount(), 4u);
  EXPECT_EQ(Trace::SpanCount("outer"), 1u);
  EXPECT_EQ(Trace::SpanCount("inner"), 2u);
  EXPECT_EQ(Trace::SpanCount("tick"), 0u);  // instants are not spans
  EXPECT_EQ(Trace::InstantCount("tick"), 1u);
}

TEST_F(TraceTest, NestingAndParentIds) {
  Trace::SetEnabled(true);
  RecordSampleSpans();

  Json exported = Trace::ExportJson();
  const Json* events = exported.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 4u);

  // Events appear in open order: outer, inner, tick, inner(sibling).
  const Json& outer = events->items()[0];
  const Json& inner = events->items()[1];
  const Json& tick = events->items()[2];
  const Json& sibling = events->items()[3];
  EXPECT_EQ(outer.GetString("name").value(), "outer");
  EXPECT_EQ(inner.GetString("name").value(), "inner");
  EXPECT_EQ(tick.GetString("name").value(), "tick");
  EXPECT_EQ(sibling.GetString("name").value(), "inner");

  uint64_t outer_id = outer.Find("args")->GetUint("id").value();
  uint64_t inner_id = inner.Find("args")->GetUint("id").value();
  // Children carry their enclosing span's id; top level has no parent.
  EXPECT_EQ(outer.Find("args")->Find("parent"), nullptr);
  EXPECT_EQ(inner.Find("args")->GetUint("parent").value(), outer_id);
  EXPECT_EQ(tick.Find("args")->GetUint("parent").value(), inner_id);
  EXPECT_EQ(sibling.Find("args")->GetUint("parent").value(), outer_id);

  // User args ride along.
  EXPECT_EQ(outer.Find("args")->GetInt("k").value(), 1);
  EXPECT_EQ(inner.Find("args")->GetInt("depth").value(), 2);
  EXPECT_EQ(tick.Find("args")->GetInt("n").value(), 7);

  // Chrome phase markers: complete spans are "X" with a dur, instants "i".
  EXPECT_EQ(outer.GetString("ph").value(), "X");
  EXPECT_NE(outer.Find("dur"), nullptr);
  EXPECT_EQ(tick.GetString("ph").value(), "i");
}

TEST_F(TraceTest, IdsAndOrderAreDeterministicAcrossRuns) {
  Trace::SetEnabled(true);
  RecordSampleSpans();
  std::string first = DeterministicPart(Trace::ExportJson());
  Trace::Reset();
  RecordSampleSpans();
  std::string second = DeterministicPart(Trace::ExportJson());
  EXPECT_EQ(first, second);
}

TEST_F(TraceTest, ArgsPastTheLimitAreDropped) {
  Trace::SetEnabled(true);
  {
    TraceSpan span("many");
    for (int64_t i = 0; i < 10; ++i) {
      span.Arg(i % 2 == 0 ? "even" : "odd", i);
    }
  }
  Json exported = Trace::ExportJson();
  const Json& event = exported.Find("traceEvents")->items()[0];
  // id + the first kMaxArgs user args survive.
  EXPECT_EQ(event.Find("args")->members().size(),
            1 + trace_internal::kMaxArgs);
}

TEST_F(TraceTest, CapacityCapDropsNewestAndCounts) {
  Trace::SetEnabled(true);
  Trace::SetCapacity(4);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span("capped");
  }
  EXPECT_EQ(Trace::EventCount(), 4u);
  EXPECT_EQ(Trace::SpanCount("capped"), 4u);
  EXPECT_EQ(Trace::DroppedCount(), 6u);
}

TEST_F(TraceTest, ChromeTraceFileRoundTripsThroughJson) {
  Trace::SetEnabled(true);
  RecordSampleSpans();
  std::string path = ::testing::TempDir() + "/trace_test_export.json";
  ASSERT_TRUE(Trace::WriteChromeTrace(path).ok());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  Result<Json> parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_TRUE(parsed->Find("traceEvents")->is_array());
  EXPECT_EQ(parsed->Find("traceEvents")->items().size(), 4u);
  EXPECT_EQ(DeterministicPart(*parsed), DeterministicPart(Trace::ExportJson()));
}

// The pin behind the whole design: instrumentation only observes. Checker
// verdicts — including the exact counterexample — are byte-identical with
// tracing and metrics on versus off.
TEST_F(TraceTest, VerdictsByteIdenticalWithInstrumentationOn) {
  auto qtc = queries::MakeComplementTransitiveClosure();
  ExhaustiveOptions o;
  o.domain_size = 2;
  o.max_facts_i = 2;
  o.fresh_values = 1;
  o.max_facts_j = 2;

  auto run = [&](MonotonicityClass cls) -> std::string {
    Result<std::optional<Counterexample>> r = FindViolation(*qtc, cls, o);
    if (!r.ok()) return "error: " + r.status().ToString();
    return r->has_value() ? r->value().ToString() : "no violation";
  };

  ASSERT_FALSE(TracingEnabled());
  ASSERT_FALSE(MetricsEnabled());
  std::string distinct_off = run(MonotonicityClass::kDomainDistinct);
  std::string disjoint_off = run(MonotonicityClass::kDomainDisjoint);
  EXPECT_NE(distinct_off, "no violation");  // Q_TC is outside Mdistinct
  EXPECT_EQ(disjoint_off, "no violation");  // and inside Mdisjoint

  Trace::SetEnabled(true);
  SetMetricsEnabled(true);
  std::string distinct_on = run(MonotonicityClass::kDomainDistinct);
  std::string disjoint_on = run(MonotonicityClass::kDomainDisjoint);
  SetMetricsEnabled(false);
  Trace::SetEnabled(false);

  EXPECT_EQ(distinct_off, distinct_on);
  EXPECT_EQ(disjoint_off, disjoint_on);
}

}  // namespace
}  // namespace calm
