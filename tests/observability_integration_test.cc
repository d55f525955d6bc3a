// End-to-end observability: runs the real engine, checker, and transducer
// network with tracing enabled and checks that the recorded spans
// reconstruct the structure the engine reports through its stats — stratum
// counts, tick counts, per-node delivery totals. Also pins the shared
// JSON/human rendering of EvalStats and RunStats (one field list, one
// format, no drift between `--json` and console output).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "base/enumerator.h"
#include "base/json.h"
#include "base/metrics.h"
#include "base/trace.h"
#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "monotonicity/checker.h"
#include "monotonicity/ladder.h"
#include "monotonicity/preservation.h"
#include "net/fault.h"
#include "net/message_buffer.h"
#include "queries/graph_queries.h"
#include "queries/paper_programs.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/strategies.h"
#include "workload/graph_gen.h"

namespace calm {
namespace {

using monotonicity::Counterexample;
using monotonicity::ExhaustiveOptions;
using monotonicity::FindViolation;
using monotonicity::MonotonicityClass;

Value V(uint64_t i) { return Value::FromInt(i); }

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::SetEnabled(false);
    SetMetricsEnabled(false);
    Trace::Reset();
  }
  void TearDown() override {
    Trace::SetEnabled(false);
    SetMetricsEnabled(false);
    Trace::Reset();
  }
};

// Evaluating the complement-TC program (2 strata: TC, then its complement)
// records one datalog.eval span whose args match EvalStats, and one
// datalog.stratum span per stratum.
TEST_F(ObservabilityTest, EvalSpansReconstructStratumStructure) {
  Trace::SetEnabled(true);

  datalog::DatalogQuery engine = queries::ComplementTcProgram();
  Instance input = workload::RandomGraph(6, 0.3, /*seed=*/3);
  datalog::EvalStats stats;
  Result<Instance> out =
      datalog::Evaluate(engine.program(), input, {}, &stats);
  ASSERT_TRUE(out.ok()) << out.status();

  EXPECT_EQ(Trace::SpanCount("datalog.eval"), 1u);
  EXPECT_EQ(Trace::SpanCount("datalog.stratum"), 2u);

  Json exported = Trace::ExportJson();
  bool saw_eval = false;
  std::map<int64_t, bool> strata_seen;
  for (const Json& e : exported.Find("traceEvents")->items()) {
    const std::string name = e.GetString("name").value();
    const Json* args = e.Find("args");
    if (name == "datalog.eval") {
      saw_eval = true;
      EXPECT_EQ(args->GetInt("strata").value(), 2);
      EXPECT_EQ(args->GetUint("rounds").value(), stats.fixpoint_rounds);
      EXPECT_EQ(args->GetUint("derived").value(), stats.derived_facts);
    } else if (name == "datalog.stratum") {
      strata_seen[args->GetInt("stratum").value()] = true;
    }
  }
  EXPECT_TRUE(saw_eval);
  EXPECT_EQ(strata_seen.size(), 2u);  // stratum indices 0 and 1
  EXPECT_TRUE(strata_seen[0]);
  EXPECT_TRUE(strata_seen[1]);
}

// FindViolation on Q_TC records one checker.find_violation span carrying
// the search-space size it actually walked.
TEST_F(ObservabilityTest, CheckerSpanRecordsSearchProgress) {
  Trace::SetEnabled(true);

  auto qtc = queries::MakeComplementTransitiveClosure();
  ExhaustiveOptions o;
  o.domain_size = 2;
  o.max_facts_i = 2;
  o.fresh_values = 1;
  o.max_facts_j = 2;
  Result<std::optional<Counterexample>> r =
      FindViolation(*qtc, MonotonicityClass::kDomainDistinct, o);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->has_value());  // Q_TC violates Mdistinct

  EXPECT_EQ(Trace::SpanCount("checker.find_violation"), 1u);
  Json exported = Trace::ExportJson();
  bool saw = false;
  for (const Json& e : exported.Find("traceEvents")->items()) {
    if (e.GetString("name").value() != "checker.find_violation") continue;
    saw = true;
    const Json* args = e.Find("args");
    EXPECT_EQ(args->GetInt("class").value(),
              static_cast<int64_t>(MonotonicityClass::kDomainDistinct));
    EXPECT_GT(args->GetInt("instances").value(), 0);
    EXPECT_GT(args->GetInt("pairs").value(), 0);
  }
  EXPECT_TRUE(saw);
}

// Sweeps say whether their plan materialized its J lists. A symmetry-off
// ladder at the survey's bounds (domain 2, |I| <= 2, two rows, 2 fresh
// values) is planned: its checker.find_violation span carries planned=1 and
// calm.checker.streamed_sweeps does not move. A ladder at deep_sweep's bounds
// (domain 4, |I| <= 4, three rows, 2 fresh values) streams: its J space is
// over kMaxPlanPairs, so the span carries planned=0 and the counter counts
// it. Plans depend only on the schema, the bounds and whether the sweep is
// reduced, so Q_TC (reduced, like TC, and quick to stop) streams exactly
// when deep_sweep's TC ladder does.
TEST_F(ObservabilityTest, FindViolationSpansSayWhetherTheSweepWasPlanned) {
  SetMetricsEnabled(true);
  MetricRegistry& registry = MetricRegistry::Global();
  Counter& streamed = registry.GetCounter("calm.checker.streamed_sweeps");
  struct Case {
    std::unique_ptr<Query> query;
    size_t domain_size, max_facts_i, max_i;
    SymmetryMode symmetry;
    int64_t reduced, planned;
  };
  Case cases[] = {
      {queries::MakeTransitiveClosure(), 2, 2, 2, SymmetryMode::kOff, 0, 1},
      {queries::MakeComplementTransitiveClosure(), 4, 4, 3,
       SymmetryMode::kAuto, 1, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.query->name());
    Trace::Reset();
    Trace::SetEnabled(true);
    registry.ResetValues();
    ExhaustiveOptions o;
    o.domain_size = c.domain_size;
    o.max_facts_i = c.max_facts_i;
    o.fresh_values = 2;
    o.symmetry = c.symmetry;
    ASSERT_TRUE(monotonicity::ComputeLadder(*c.query, c.max_i, o).ok());
    Trace::SetEnabled(false);
    ASSERT_EQ(Trace::SpanCount("checker.find_violation"), 1u);
    const Json exported = Trace::ExportJson();
    for (const Json& e : exported.Find("traceEvents")->items()) {
      if (e.GetString("name").value() != "checker.find_violation") continue;
      const Json* args = e.Find("args");
      EXPECT_EQ(args->GetInt("cells").value(),
                static_cast<int64_t>(3 * c.max_i));
      EXPECT_EQ(args->GetInt("reduced").value(), c.reduced);
      EXPECT_EQ(args->GetInt("planned").value(), c.planned);
    }
    EXPECT_EQ(streamed.Value(), c.planned == 1 ? 0u : 1u);
  }
}

// Batched union checks are observable: every checked pair rides in some
// batch (worlds answered past a stop are dropped, so the batch worlds sum
// to at least pairs_checked), batches hold more than one world, an
// uncapped program never falls back to the per-J replay, each masked run
// records a datalog.union_batch span (a well-founded one with its Gamma
// count), and the verdict is the same with metrics and tracing on or off.
// Covers a stratified program (Q_TC) and the well-founded win-move program.
TEST_F(ObservabilityTest, UnionBatchCountersCoverEveryCheck) {
  for (const datalog::DatalogQuery& q :
       {queries::ComplementTcProgram(), queries::WinMoveProgram()}) {
    SCOPED_TRACE(q.name());
    SetMetricsEnabled(false);
    Trace::SetEnabled(false);
    Trace::Reset();
    ExhaustiveOptions o;
    o.domain_size = 3;
    o.max_facts_i = 2;
    o.fresh_values = 2;
    o.max_facts_j = 2;
    o.threads = 1;
    auto verdict = [&](MonotonicityClass cls) {
      Result<std::optional<Counterexample>> r = FindViolation(q, cls, o);
      if (!r.ok()) return "error: " + r.status().ToString();
      return r->has_value() ? (*r)->ToString() : std::string("<none>");
    };
    const std::string distinct_off =
        verdict(MonotonicityClass::kDomainDistinct);
    const std::string disjoint_off =
        verdict(MonotonicityClass::kDomainDisjoint);

    SetMetricsEnabled(true);
    Trace::SetEnabled(true);
    MetricRegistry& registry = MetricRegistry::Global();
    registry.ResetValues();
    EXPECT_EQ(verdict(MonotonicityClass::kDomainDistinct), distinct_off);
    EXPECT_EQ(verdict(MonotonicityClass::kDomainDisjoint), disjoint_off);
    uint64_t pairs = 0;
    for (const char* cls : {"Mdistinct", "Mdisjoint"}) {
      pairs += registry
                   .GetCounter("calm.checker.pairs_checked", {{"class", cls}})
                   .Value();
    }
    const Histogram& worlds =
        registry.GetHistogram("calm.checker.union_batch_worlds");
    EXPECT_GT(pairs, 0u);
    EXPECT_GE(worlds.Sum(), pairs);
    EXPECT_EQ(worlds.Count(),
              registry.GetCounter("calm.checker.union_batches").Value());
    EXPECT_LT(worlds.Count(), pairs) << "no batch held more than one world";
    EXPECT_EQ(registry.GetCounter("calm.eval.union_batch_fallbacks").Value(),
              0u);
    EXPECT_GT(Trace::SpanCount("datalog.union_batch"), 0u);
    const bool well_founded =
        q.semantics() == datalog::DatalogQuery::Semantics::kWellFounded;
    Json exported = Trace::ExportJson();
    for (const Json& e : exported.Find("traceEvents")->items()) {
      if (e.GetString("name").value() != "datalog.union_batch") continue;
      const Json* args = e.Find("args");
      EXPECT_EQ(args->GetInt("fallback").value(), 0);
      if (well_founded) {
        // At least Gamma(lo) and one lo/hi round.
        EXPECT_GE(args->GetInt("gammas").value(), 3);
      } else {
        EXPECT_EQ(args->Find("gammas"), nullptr);
      }
    }
  }
}

// An Hinj sweep of Datalog TC evaluates its targets in masked batches, each
// target once: the datalog.eval_batch spans' worlds sum to the targets the
// sweep's span reports, which is every target of the unpruned sweep (TC is
// in Hinj), at 1 and 4 threads; no batch falls back, and the verdict is
// the same with metrics and tracing on or off.
TEST_F(ObservabilityTest, HinjSweepEvaluatesEachTargetOnce) {
  const datalog::DatalogQuery q = queries::TcProgram();
  monotonicity::PreservationOptions o;
  o.domain_size = 2;
  o.max_facts = 2;
  o.symmetry = SymmetryMode::kOff;  // no genericity probe batches
  // 1 + 16 + 120 targets over the doubled domain: three blocks, 64/64/9.
  const size_t targets = AllInstances(q.input_schema(), IntDomain(4), 2).size();
  ASSERT_EQ(targets, 137u);
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    o.threads = threads;
    auto verdict = [&] {
      auto r = monotonicity::FindPreservationViolation(
          q, monotonicity::PreservationClass::kInjectiveHomomorphisms, o);
      if (!r.ok()) return "error: " + r.status().ToString();
      return r->has_value() ? (*r)->ToString() : std::string("<none>");
    };
    SetMetricsEnabled(false);
    Trace::SetEnabled(false);
    Trace::Reset();
    const std::string off = verdict();
    EXPECT_EQ(off, "<none>");

    SetMetricsEnabled(true);
    Trace::SetEnabled(true);
    MetricRegistry& registry = MetricRegistry::Global();
    registry.ResetValues();
    EXPECT_EQ(verdict(), off);
    EXPECT_EQ(registry.GetCounter("calm.eval.eval_batches").Value(), 3u);
    EXPECT_EQ(registry.GetCounter("calm.eval.eval_batch_fallbacks").Value(),
              0u);
    int64_t worlds = 0, reported = -1;
    Json exported = Trace::ExportJson();
    for (const Json& e : exported.Find("traceEvents")->items()) {
      const std::string name = e.GetString("name").value();
      const Json* args = e.Find("args");
      if (name == "datalog.eval_batch") {
        worlds += args->GetInt("worlds").value();
        EXPECT_EQ(args->GetInt("fallback").value(), 0);
        EXPECT_EQ(args->Find("gammas"), nullptr);
      } else if (name == "preservation.find_violation") {
        EXPECT_EQ(reported, -1) << "one sweep, one span";
        reported = args->GetInt("targets").value();
      }
    }
    EXPECT_EQ(reported, static_cast<int64_t>(targets));
    EXPECT_EQ(worlds, reported);
  }
}

// A win-move run on a 3-node network: net.step spans reconstruct the tick
// count, the heartbeat count, and the per-node delivery totals that the
// network reports in RunStats.
TEST_F(ObservabilityTest, NetworkSpansMatchRunStats) {
  Trace::SetEnabled(true);

  auto query = queries::MakeWinMove();
  auto machine = transducer::MakeDomainRequestTransducer(query.get());
  Instance graph = workload::RandomGraph(5, 0.35, /*seed=*/1);
  Instance input;
  for (const Tuple& t : graph.TuplesOf(InternName("E"))) {
    input.Insert(Fact("Move", t));
  }
  transducer::Network nodes{V(900), V(901), V(902)};
  transducer::HashDomainGuidedPolicy policy(nodes, /*salt=*/5);
  transducer::TransducerNetwork network(
      nodes, machine.get(), &policy, transducer::ModelOptions::PolicyAware());
  ASSERT_TRUE(network.Initialize(input).ok());

  transducer::RunOptions ro;
  ro.scheduler = transducer::RunOptions::SchedulerKind::kRandom;
  ro.seed = 11;
  Result<transducer::RunResult> run = transducer::RunToQuiescence(network, ro);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_TRUE(run->quiesced);
  const net::RunStats& stats = run->stats;

  // One span per transition, ticks numbered 1..transitions.
  EXPECT_EQ(Trace::SpanCount("net.step"), stats.transitions);

  Json exported = Trace::ExportJson();
  uint64_t max_tick = 0;
  uint64_t delivered_total = 0;
  uint64_t sent_total = 0;
  uint64_t heartbeat_spans = 0;
  std::map<int64_t, uint64_t> delivered_by_node;
  for (const Json& e : exported.Find("traceEvents")->items()) {
    if (e.GetString("name").value() != "net.step") continue;
    const Json* args = e.Find("args");
    max_tick = std::max(max_tick, args->GetUint("tick").value());
    uint64_t delivered = args->GetUint("delivered").value();
    delivered_total += delivered;
    sent_total += args->GetUint("sent").value();
    if (delivered == 0) ++heartbeat_spans;
    delivered_by_node[args->GetInt("node").value()] += delivered;
  }
  EXPECT_EQ(max_tick, stats.transitions);
  EXPECT_EQ(delivered_total, stats.messages_delivered);
  EXPECT_EQ(sent_total, stats.messages_sent);
  EXPECT_EQ(heartbeat_spans, stats.heartbeats);
  EXPECT_GT(stats.messages_delivered, 0u);
  // Every delivery is attributed to one of the 3 nodes.
  uint64_t across_nodes = 0;
  for (const auto& [node, count] : delivered_by_node) {
    EXPECT_GE(node, 0);
    EXPECT_LT(node, 3);
    across_nodes += count;
  }
  EXPECT_EQ(across_nodes, stats.messages_delivered);
}

// Counts Eval calls through to `inner`.
class CountingQuery : public Query {
 public:
  explicit CountingQuery(const Query* inner) : inner_(inner) {}
  const Schema& input_schema() const override {
    return inner_->input_schema();
  }
  const Schema& output_schema() const override {
    return inner_->output_schema();
  }
  Result<Instance> Eval(const Instance& input) const override {
    ++evals_;
    return inner_->Eval(input);
  }
  std::string name() const override { return inner_->name(); }
  uint64_t evals() const { return evals_; }

 private:
  const Query* inner_;
  mutable uint64_t evals_ = 0;
};

// Forwards to `inner` with the node's EvalMemo withheld.
class WithoutMemo : public transducer::Transducer {
 public:
  explicit WithoutMemo(const transducer::Transducer* inner) : inner_(inner) {}
  const transducer::TransducerSchema& schema() const override {
    return inner_->schema();
  }
  std::string name() const override { return inner_->name(); }
  Result<transducer::StepOutput> Step(
      const transducer::StepInput& in) const override {
    transducer::StepInput bare = in;
    bare.memo = nullptr;
    return inner_->Step(bare);
  }

 private:
  const transducer::Transducer* inner_;
};

uint64_t CounterValue(const std::string& name) {
  return MetricRegistry::Global().GetCounter(name).Value();
}

// Domain-request on Q_TC under a chaos fault plan (crash-restarts included)
// and the random scheduler: every net.step has exactly one child span per
// sub-layer; memo hits plus misses equal the evaluations a memo-less run
// makes, and misses equal this run's evaluations; system-fact rebuilds are
// counted; and the run is the same with tracing and metrics on or off.
TEST_F(ObservabilityTest, NetworkSubLayerSpansAndCounters) {
  auto qtc = queries::MakeComplementTransitiveClosure();
  const Instance graph = workload::RandomGraph(7, 0.3, /*seed=*/4);
  transducer::Network nodes{V(900), V(901), V(902)};
  transducer::HashDomainGuidedPolicy policy(nodes, /*salt=*/3);

  // Runs `machine` to quiescence under the fixed schedule and fault plan.
  auto run = [&](const transducer::Transducer& machine)
      -> Result<transducer::RunResult> {
    net::FaultPlan plan =
        net::FaultPlan::Random(/*seed=*/9, net::FaultProfile::Chaos());
    transducer::TransducerNetwork network(
        nodes, &machine, &policy, transducer::ModelOptions::PolicyAware());
    CALM_RETURN_IF_ERROR(network.Initialize(graph));
    transducer::RunOptions ro;
    ro.scheduler = transducer::RunOptions::SchedulerKind::kRandom;
    ro.seed = 6;
    ro.faults = &plan;
    ro.record_choices = true;
    return transducer::RunToQuiescence(network, ro);
  };

  CountingQuery plain_query(qtc.get());
  auto plain_machine = transducer::MakeDomainRequestTransducer(&plain_query);
  Result<transducer::RunResult> plain = run(*plain_machine);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(plain->quiesced);

  CountingQuery bare_query(qtc.get());
  auto bare_inner = transducer::MakeDomainRequestTransducer(&bare_query);
  WithoutMemo bare_machine(bare_inner.get());
  Result<transducer::RunResult> bare = run(bare_machine);
  ASSERT_TRUE(bare.ok()) << bare.status();

  Trace::SetEnabled(true);
  SetMetricsEnabled(true);
  MetricRegistry::Global().ResetValues();
  CountingQuery traced_query(qtc.get());
  auto traced_machine =
      transducer::MakeDomainRequestTransducer(&traced_query);
  Result<transducer::RunResult> traced = run(*traced_machine);
  ASSERT_TRUE(traced.ok()) << traced.status();
  SetMetricsEnabled(false);
  Trace::SetEnabled(false);

  // Same run with instrumentation on or off, and with or without the memo.
  for (const transducer::RunResult* other : {&*bare, &*traced}) {
    EXPECT_EQ(other->output, plain->output);
    EXPECT_EQ(net::RunStatsToString(other->stats),
              net::RunStatsToString(plain->stats));
    ASSERT_EQ(other->choices.size(), plain->choices.size());
    for (size_t i = 0; i < plain->choices.size(); ++i) {
      EXPECT_EQ(other->choices[i].node_index, plain->choices[i].node_index);
      EXPECT_EQ(other->choices[i].deliveries, plain->choices[i].deliveries);
    }
  }
  const size_t transitions = plain->stats.transitions;

  // The memo answers each evaluation once: a hit or a miss, and only a
  // miss evaluates Q.
  const uint64_t hits = CounterValue("calm.transducer.memo_hits");
  const uint64_t misses = CounterValue("calm.transducer.memo_misses");
  EXPECT_EQ(hits + misses, bare_query.evals());
  EXPECT_EQ(misses, traced_query.evals());
  EXPECT_EQ(traced_query.evals(), plain_query.evals());
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  const uint64_t builds = CounterValue("calm.net.system_fact_builds");
  EXPECT_GT(builds, 0u);
  EXPECT_LE(builds, transitions);
  EXPECT_EQ(CounterValue("calm.net.transitions"), transitions);
  uint64_t per_node = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    per_node += MetricRegistry::Global()
                    .GetCounter("calm.net.node_transitions",
                                {{"node", std::to_string(i)}})
                    .Value();
  }
  EXPECT_EQ(per_node, transitions);

  // One child span per sub-layer under every net.step.
  const char* const kChildren[] = {"net.deliver",   "net.system_facts",
                                   "transducer.step", "net.apply",
                                   "net.send",      "net.output_recount"};
  Json exported = Trace::ExportJson();
  std::map<uint64_t, std::map<std::string, int>> children;  // step id -> name
  for (const Json& e : exported.Find("traceEvents")->items()) {
    const std::string name = e.GetString("name").value();
    const Json* args = e.Find("args");
    if (name == "net.step") {
      children[args->GetUint("id").value()];
      continue;
    }
    for (const char* child : kChildren) {
      if (name != child) continue;
      ASSERT_TRUE(args->Find("parent") != nullptr) << name;
      ++children[args->GetUint("parent").value()][name];
    }
  }
  EXPECT_EQ(Trace::SpanCount("net.step"), transitions);
  EXPECT_EQ(children.size(), transitions);
  for (const auto& [step, names] : children) {
    for (const char* child : kChildren) {
      auto it = names.find(child);
      EXPECT_TRUE(it != names.end() && it->second == 1)
          << "net.step " << step << " child " << child;
    }
  }
}

// The drift pin: console stats lines are rendered from the same Json object
// bench --json emits, field for field. A new field shows up in both or
// neither; the exact canonical forms are pinned here.
TEST_F(ObservabilityTest, EvalStatsStringIsDerivedFromItsJsonForm) {
  datalog::EvalStats s;
  s.derived_facts = 7;
  s.fixpoint_rounds = 3;
  s.rule_applications = 11;
  EXPECT_EQ(datalog::EvalStatsToString(s),
            "derived_facts=7 fixpoint_rounds=3 rule_applications=11");

  const Json json = datalog::EvalStatsToJson(s);
  std::string text = datalog::EvalStatsToString(s);
  for (const auto& [key, value] : json.members()) {
    EXPECT_NE(text.find(key + "=" + std::to_string(value.uint_value())),
              std::string::npos)
        << key;
  }
}

TEST_F(ObservabilityTest, RunStatsStringIsDerivedFromItsJsonForm) {
  net::RunStats s;
  s.transitions = 9;
  s.heartbeats = 2;
  s.messages_sent = 5;
  s.messages_delivered = 4;
  s.output_facts = 3;
  s.output_complete_at = 8;
  EXPECT_EQ(net::RunStatsToString(s),
            "transitions=9 heartbeats=2 sent=5 delivered=4 output_facts=3 "
            "output_complete_at=8");

  const Json json = net::RunStatsToJson(s);
  std::string text = net::RunStatsToString(s);
  for (const auto& [key, value] : json.members()) {
    EXPECT_NE(text.find(key + "=" + std::to_string(value.uint_value())),
              std::string::npos)
        << key;
  }
}

}  // namespace
}  // namespace calm
