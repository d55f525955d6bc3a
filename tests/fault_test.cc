// Fault-injection channel, confluence oracle, and record/replay traces:
//   * FaultPlan determinism, fairness bounds, and scripted replay;
//   * strategy transducers stay confluent under every fault kind
//     (Theorems 4.3-4.5 hold on the faulty channel);
//   * the racy-election negative control diverges, the divergence shrinks
//     to a small fault schedule, and the shrunk trace replays
//     deterministically;
//   * StepNode input validation, fail_on_budget, and RunConsistently's
//     diverging-schedule diagnostics.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "queries/graph_queries.h"
#include "transducer/confluence.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/strategies.h"
#include "workload/graph_gen.h"

namespace calm::transducer {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

// ---------------------------------------------------------------------------
// Reusable scenario: everything a NetworkFactory needs to outlive its runs.
// ---------------------------------------------------------------------------

struct Scenario {
  std::unique_ptr<Query> query;
  std::unique_ptr<Transducer> transducer;
  Instance input;
  Network nodes;
  std::unique_ptr<DistributionPolicy> policy;
  ModelOptions model;
  // Networks handed out as raw pointers (RunConsistently) live here.
  std::vector<std::unique_ptr<TransducerNetwork>> retained;

  NetworkFactory Factory() {
    return [this]() -> Result<std::unique_ptr<TransducerNetwork>> {
      auto network = std::make_unique<TransducerNetwork>(
          nodes, transducer.get(), policy.get(), model);
      CALM_RETURN_IF_ERROR(network->Initialize(input));
      return network;
    };
  }
};

Scenario BroadcastTC(size_t node_count, uint64_t seed) {
  Scenario s;
  s.query = queries::MakeTransitiveClosure();
  s.transducer = MakeBroadcastTransducer(s.query.get());
  s.input = workload::RandomGraph(6, 0.3, seed);
  for (size_t k = 0; k < node_count; ++k) s.nodes.push_back(V(900 + k));
  s.policy = std::make_unique<HashPolicy>(s.nodes, seed);
  s.model = ModelOptions::Original();
  return s;
}

Scenario AbsenceVMinusS(size_t node_count, uint64_t seed) {
  Scenario s;
  s.query = std::make_unique<NativeQuery>(
      "v-minus-s", Schema({{"V", 1}, {"S", 1}}), Schema({{"O", 1}}),
      [](const Instance& in) -> Result<Instance> {
        Instance out;
        for (const Tuple& t : in.TuplesOf(InternName("V"))) {
          if (in.TuplesOf(InternName("S")).count(t) == 0) {
            out.Insert(Fact("O", t));
          }
        }
        return out;
      });
  s.transducer = MakeAbsenceTransducer(s.query.get());
  for (uint64_t k = 0; k < 4; ++k) s.input.Insert(Fact("V", {V(k)}));
  s.input.Insert(Fact("S", {V(seed % 4)}));
  for (size_t k = 0; k < node_count; ++k) s.nodes.push_back(V(900 + k));
  s.policy = std::make_unique<HashPolicy>(s.nodes, seed);
  s.model = ModelOptions::PolicyAware();
  return s;
}

Scenario RequestWinMove(size_t node_count, uint64_t seed) {
  Scenario s;
  s.query = queries::MakeWinMove();
  s.transducer = MakeDomainRequestTransducer(s.query.get());
  Instance graph = workload::RandomGraph(5, 0.35, seed);
  for (const Tuple& t : graph.TuplesOf(InternName("E"))) {
    s.input.Insert(Fact("Move", t));
  }
  for (size_t k = 0; k < node_count; ++k) s.nodes.push_back(V(900 + k));
  s.policy = std::make_unique<HashDomainGuidedPolicy>(s.nodes, seed);
  s.model = ModelOptions::PolicyAware();
  return s;
}

Scenario RacyElection(size_t node_count, uint64_t seed) {
  Scenario s;
  s.transducer = MakeRacyElectionTransducer();
  for (uint64_t k = 1; k <= node_count; ++k) s.input.Insert(Fact("P", {V(k)}));
  for (size_t k = 0; k < node_count; ++k) s.nodes.push_back(V(900 + k));
  s.policy = std::make_unique<HashPolicy>(s.nodes, seed);
  s.model = ModelOptions::Original();
  return s;
}

// Factory call that must succeed (gtest TEST bodies cannot propagate Status).
std::unique_ptr<TransducerNetwork> MustMake(Scenario& s) {
  Result<std::unique_ptr<TransducerNetwork>> r = s.Factory()();
  if (!r.ok()) {
    ADD_FAILURE() << "network factory failed: " << r.status();
    return nullptr;
  }
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// FaultPlan unit tests (channel driven directly, no network).
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, DeterministicGivenSeed) {
  net::FaultPlan a = net::FaultPlan::Random(17, net::FaultProfile::Chaos());
  net::FaultPlan b = net::FaultPlan::Random(17, net::FaultProfile::Chaos());
  a.BindNetwork(3);
  b.BindNetwork(3);
  for (uint64_t tick = 1; tick <= 100; ++tick) {
    std::vector<net::FaultPlan::Delivery> da, db;
    std::vector<size_t> ca, cb;
    a.BeginTransition(tick, &da, &ca);
    b.BeginTransition(tick, &db, &cb);
    ASSERT_EQ(ca, cb);
    ASSERT_EQ(da.size(), db.size());
    Fact f("M", {V(tick)});
    da.clear();
    db.clear();
    a.OnSend(0, 1 + tick % 2, f, tick, &da);
    b.OnSend(0, 1 + tick % 2, f, tick, &db);
    ASSERT_EQ(da.size(), db.size());
    for (size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].receiver, db[i].receiver);
      EXPECT_EQ(da[i].fact, db[i].fact);
      EXPECT_EQ(da[i].has_position, db[i].has_position);
      EXPECT_EQ(da[i].position, db[i].position);
    }
  }
  EXPECT_EQ(a.log(), b.log());
}

TEST(FaultPlanTest, RebindRestartsDecisionStream) {
  net::FaultPlan a = net::FaultPlan::Random(23, net::FaultProfile::Chaos());
  a.BindNetwork(2);
  std::vector<net::FaultPlan::Delivery> d;
  std::vector<size_t> c;
  for (uint64_t tick = 1; tick <= 40; ++tick) {
    a.BeginTransition(tick, &d, &c);
    a.OnSend(0, 1, Fact("M", {V(tick)}), tick, &d);
  }
  std::vector<net::FaultEvent> first = a.log();
  a.BindNetwork(2);  // same plan, fresh run
  d.clear();
  c.clear();
  for (uint64_t tick = 1; tick <= 40; ++tick) {
    a.BeginTransition(tick, &d, &c);
    a.OnSend(0, 1, Fact("M", {V(tick)}), tick, &d);
  }
  EXPECT_EQ(a.log(), first);
}

TEST(FaultPlanTest, DropRetransmitDeliversWithinHoldupBound) {
  // Fairness: every send lands within MaxHoldup ticks of its send tick,
  // even at a 90% per-attempt drop rate.
  net::FaultProfile profile = net::FaultProfile::DropOnly(0.9);
  net::FaultPlan plan = net::FaultPlan::Random(5, profile);
  plan.BindNetwork(2);
  std::map<uint64_t, uint64_t> sent_at;    // message value -> send tick
  std::map<uint64_t, uint64_t> landed_at;  // message value -> enqueue tick
  const uint64_t kSends = 50;
  const uint64_t kDrain = profile.MaxHoldup() + 2;
  for (uint64_t tick = 1; tick <= kSends + kDrain; ++tick) {
    std::vector<net::FaultPlan::Delivery> deliveries;
    std::vector<size_t> crashes;
    plan.BeginTransition(tick, &deliveries, &crashes);
    if (tick <= kSends) {
      sent_at[tick] = tick;
      plan.OnSend(0, 1, Fact("M", {V(tick)}), tick, &deliveries);
    }
    for (const net::FaultPlan::Delivery& d : deliveries) {
      uint64_t value = d.fact.args[0].payload();
      if (landed_at.count(value) == 0) landed_at[value] = tick;
    }
  }
  EXPECT_FALSE(plan.HasPendingMessages());
  EXPECT_GT(plan.stats().retransmits, 0u);
  ASSERT_EQ(landed_at.size(), kSends);
  for (const auto& [value, send_tick] : sent_at) {
    ASSERT_TRUE(landed_at.count(value)) << "message " << value << " lost";
    EXPECT_LE(landed_at[value] - send_tick, profile.MaxHoldup())
        << "message " << value << " held past the fairness bound";
  }
}

TEST(FaultPlanTest, PartitionHoldsThenHealsWithinWindow) {
  net::FaultEvent part;
  part.kind = net::FaultEvent::Kind::kPartition;
  part.tick = 2;
  part.window = 5;
  part.node_a = 0;
  part.node_b = 1;
  net::FaultPlan plan = net::FaultPlan::Scripted({part});
  plan.BindNetwork(2);
  std::vector<net::FaultPlan::Delivery> deliveries;
  std::vector<size_t> crashes;
  plan.BeginTransition(2, &deliveries, &crashes);  // opens the partition
  plan.OnSend(0, 1, Fact("M", {V(1)}), 2, &deliveries);
  EXPECT_TRUE(deliveries.empty());  // held behind the partition
  EXPECT_TRUE(plan.HasPendingMessages());
  EXPECT_EQ(plan.stats().partition_holds, 1u);
  uint64_t landed = 0;
  for (uint64_t tick = 3; tick <= 10 && landed == 0; ++tick) {
    deliveries.clear();
    plan.BeginTransition(tick, &deliveries, &crashes);
    if (!deliveries.empty()) landed = tick;
  }
  ASSERT_NE(landed, 0u);
  EXPECT_LE(landed, part.tick + part.window + 1);
  EXPECT_FALSE(plan.HasPendingMessages());
}

// ---------------------------------------------------------------------------
// Faulted network runs.
// ---------------------------------------------------------------------------

TEST(FaultyRunTest, BroadcastConfluentUnderChaos) {
  Scenario s = BroadcastTC(3, 1);
  Instance expected = s.query->Eval(s.input).value();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    net::FaultPlan plan =
        net::FaultPlan::Random(seed, net::FaultProfile::Chaos());
    std::unique_ptr<TransducerNetwork> network = MustMake(s);
  ASSERT_NE(network, nullptr);
    RunOptions ro;
    ro.scheduler = RunOptions::SchedulerKind::kRandom;
    ro.seed = seed;
    ro.faults = &plan;
    Result<RunResult> r = RunToQuiescence(*network, ro);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(r->quiesced) << "plan seed " << seed;
    EXPECT_EQ(r->output, expected) << "plan seed " << seed;
  }
}

TEST(FaultyRunTest, ScriptedLogReplaysIdentically) {
  Scenario s = BroadcastTC(3, 2);
  net::FaultPlan random = net::FaultPlan::Random(9, net::FaultProfile::Chaos());
  std::unique_ptr<TransducerNetwork> n1 = MustMake(s);
  ASSERT_NE(n1, nullptr);
  RunOptions ro;
  ro.scheduler = RunOptions::SchedulerKind::kRandom;
  ro.seed = 9;
  ro.faults = &random;
  Result<RunResult> r1 = RunToQuiescence(*n1, ro);
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r1->quiesced);
  ASSERT_FALSE(random.log().empty()) << "chaos run injected no faults";

  net::FaultPlan scripted = net::FaultPlan::Scripted(random.log());
  std::unique_ptr<TransducerNetwork> n2 = MustMake(s);
  ASSERT_NE(n2, nullptr);
  ro.faults = &scripted;
  Result<RunResult> r2 = RunToQuiescence(*n2, ro);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2->output, r1->output);
  EXPECT_EQ(scripted.log(), random.log());  // decision-for-decision replay
}

TEST(FaultyRunTest, AdversarialDelayWithDuplicationMatchesRoundRobin) {
  // Satellite (c): AdversarialDelayScheduler plus message duplication must
  // produce byte-identical output to the faultless round-robin run for all
  // three Fig. 2 strategy transducers.
  using MakeScenario = Scenario (*)(size_t, uint64_t);
  for (MakeScenario make :
       {&BroadcastTC, &AbsenceVMinusS, &RequestWinMove}) {
    Scenario s = make(3, 4);
    std::unique_ptr<TransducerNetwork> ref = MustMake(s);
  ASSERT_NE(ref, nullptr);
    Result<RunResult> reference = RunToQuiescence(*ref);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_TRUE(reference->quiesced);

    net::FaultPlan plan =
        net::FaultPlan::Random(11, net::FaultProfile::DuplicationOnly(0.8));
    std::unique_ptr<TransducerNetwork> network = MustMake(s);
  ASSERT_NE(network, nullptr);
    RunOptions ro;
    ro.scheduler = RunOptions::SchedulerKind::kAdversarialDelay;
    ro.max_delay = 8;
    ro.faults = &plan;
    Result<RunResult> r = RunToQuiescence(*network, ro);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(r->quiesced) << s.transducer->name();
    EXPECT_EQ(r->output.ToString(), reference->output.ToString())
        << s.transducer->name();
  }
}

TEST(FaultyRunTest, CrashRestartRecovers) {
  // A crash-restart wipes a node's state mid-run; the durable inbox replay
  // plus re-delivered local input must reconverge to the correct output.
  Scenario s = BroadcastTC(3, 3);
  Instance expected = s.query->Eval(s.input).value();
  for (size_t victim = 0; victim < 3; ++victim) {
    net::FaultEvent crash;
    crash.kind = net::FaultEvent::Kind::kCrash;
    crash.tick = 6;
    crash.node = victim;
    net::FaultPlan plan = net::FaultPlan::Scripted({crash});
    std::unique_ptr<TransducerNetwork> network = MustMake(s);
  ASSERT_NE(network, nullptr);
    RunOptions ro;
    ro.faults = &plan;
    Result<RunResult> r = RunToQuiescence(*network, ro);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(r->quiesced);
    EXPECT_EQ(plan.stats().crashes, 1u);
    EXPECT_EQ(r->output, expected) << "crashed node " << victim;
  }
}

// ---------------------------------------------------------------------------
// StepNode validation + runner diagnostics.
// ---------------------------------------------------------------------------

TEST(StepNodeValidationTest, RejectsMalformedDeliveryIndices) {
  Scenario s = BroadcastTC(2, 1);
  std::unique_ptr<TransducerNetwork> network = MustMake(s);
  ASSERT_NE(network, nullptr);
  // Empty buffer: any index is out of range.
  Status bad = network->StepNode(s.nodes[0], {0});
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("out of range"), std::string::npos);

  // Fill node 1's buffer via node 0's broadcast, then misuse the indices.
  ASSERT_TRUE(network->StepNode(s.nodes[0], {}).ok());
  ASSERT_GE(network->buffer(s.nodes[1]).size(), 2u);
  Status dup = network->StepNode(s.nodes[1], {1, 1});
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.message().find("strictly increasing"), std::string::npos);
  Status decreasing = network->StepNode(s.nodes[1], {1, 0});
  EXPECT_EQ(decreasing.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decreasing.message().find("strictly increasing"),
            std::string::npos);
  Status huge = network->StepNode(s.nodes[1], {0, 999});
  EXPECT_EQ(huge.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(huge.message().find("out of range"), std::string::npos);
}

TEST(RunnerTest, FailOnBudgetReturnsDeadlineExceeded) {
  Scenario s = BroadcastTC(3, 1);
  std::unique_ptr<TransducerNetwork> network = MustMake(s);
  ASSERT_NE(network, nullptr);
  RunOptions ro;
  ro.max_transitions = 2;  // cannot possibly quiesce
  ro.fail_on_budget = true;
  Result<RunResult> r = RunToQuiescence(*network, ro);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("max_transitions=2"), std::string::npos);
  EXPECT_NE(r.status().message().find("round-robin"), std::string::npos);
  EXPECT_NE(r.status().message().find("transitions="), std::string::npos);

  // Without the flag the same run reports quiesced = false, not an error.
  std::unique_ptr<TransducerNetwork> network2 = MustMake(s);
  ASSERT_NE(network2, nullptr);
  ro.fail_on_budget = false;
  Result<RunResult> soft = RunToQuiescence(*network2, ro);
  ASSERT_TRUE(soft.ok()) << soft.status();
  EXPECT_FALSE(soft->quiesced);
}

TEST(RunnerTest, RunConsistentlyNamesDivergingSchedule) {
  Scenario s = RacyElection(3, 1);
  auto make = [&]() -> Result<TransducerNetwork*> {
    CALM_ASSIGN_OR_RETURN(std::unique_ptr<TransducerNetwork> network,
                          s.Factory()());
    s.retained.push_back(std::move(network));
    return s.retained.back().get();
  };
  ConsistencyOptions opts;
  opts.random_runs = 8;
  opts.seed = 3;
  Result<Instance> r = RunConsistently(make, opts);
  ASSERT_FALSE(r.ok()) << "racy election unexpectedly consistent";
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("schedule-dependent output"),
            std::string::npos);
  EXPECT_NE(r.status().message().find("random(seed="), std::string::npos);
  EXPECT_NE(r.status().message().find("round-robin(seed=0)"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Confluence oracle.
// ---------------------------------------------------------------------------

// Everything a ConfluenceReport says, as one comparable string.
std::string ReportSummary(const ConfluenceReport& report) {
  const net::FaultStats& f = report.total_faults;
  std::string out = report.reference.ToString() + " runs=" +
                    std::to_string(report.runs) +
                    " faulted=" + std::to_string(report.faulted_runs);
  for (size_t n : {f.duplicates, f.drops, f.retransmits, f.reorders,
                   f.partitions, f.partition_holds, f.crashes}) {
    out += " " + std::to_string(n);
  }
  for (const DivergenceWitness& w : report.divergences) {
    out += " witness " + std::to_string(w.plan_seed) + " " +
           w.observed.ToString();
  }
  return out;
}

// Serial, and again at 4 threads: the runs share one transducer (and so
// one query) across threads, each network keeping its own memos, and the
// report must not change.
TEST(ConfluenceOracleTest, CoordinationFreeStrategiesAreConfluent) {
  using MakeScenario = Scenario (*)(size_t, uint64_t);
  for (MakeScenario make :
       {&BroadcastTC, &AbsenceVMinusS, &RequestWinMove}) {
    Scenario s = make(3, 2);
    ConfluenceOptions opts;
    opts.fault_plans = 6;
    opts.seed = 7;
    Result<ConfluenceReport> report = CheckConfluence(s.Factory(), opts);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->runs, opts.fault_plans * opts.schedulers.size());
    EXPECT_GT(report->faulted_runs, 0u);
    EXPECT_TRUE(report->confluent())
        << s.transducer->name() << " diverged: first witness under "
        << SchedulerKindName(report->divergences[0].scheduler) << " plan seed "
        << report->divergences[0].plan_seed;

    opts.threads = 4;
    Result<ConfluenceReport> parallel = CheckConfluence(s.Factory(), opts);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(ReportSummary(*parallel), ReportSummary(*report))
        << s.transducer->name();
  }
}

TEST(ConfluenceOracleTest, RacyElectionDivergesAndWitnessShrinksAndReplays) {
  Scenario s = RacyElection(3, 1);
  ConfluenceOptions opts;
  opts.fault_plans = 32;
  opts.seed = 1;
  // Round-robin only: faultless round-robin is deterministic, so any
  // divergence here is attributable to the injected faults — which is what
  // makes the shrunk schedule a meaningful witness.
  opts.schedulers = {RunOptions::SchedulerKind::kRoundRobin};
  Result<ConfluenceReport> report = CheckConfluence(s.Factory(), opts);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_FALSE(report->confluent())
      << "racy election survived " << report->runs << " faulted runs";

  const DivergenceWitness& witness = report->divergences[0];
  EXPECT_FALSE(witness.events.empty());
  EXPECT_LE(witness.events.size(), witness.original_events);
  EXPECT_NE(witness.observed, report->reference);

  // The shrunk schedule replays deterministically: two fresh scripted runs
  // under the witness's scheduler produce the recorded divergent output.
  for (int attempt = 0; attempt < 2; ++attempt) {
    net::FaultPlan plan = net::FaultPlan::Scripted(witness.events);
    std::unique_ptr<TransducerNetwork> network = MustMake(s);
  ASSERT_NE(network, nullptr);
    RunOptions ro;
    ro.scheduler = witness.scheduler;
    ro.seed = witness.plan_seed;
    ro.faults = &plan;
    Result<RunResult> r = RunToQuiescence(*network, ro);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->output, witness.observed);
  }

  // 1-minimality: removing any single remaining event restores confluence
  // (or at least changes the outcome away from this witness's divergence).
  if (witness.events.size() > 1) {
    size_t still_diverging = 0;
    for (size_t skip = 0; skip < witness.events.size(); ++skip) {
      std::vector<net::FaultEvent> subset;
      for (size_t i = 0; i < witness.events.size(); ++i) {
        if (i != skip) subset.push_back(witness.events[i]);
      }
      net::FaultPlan plan = net::FaultPlan::Scripted(subset);
      std::unique_ptr<TransducerNetwork> network = MustMake(s);
  ASSERT_NE(network, nullptr);
      RunOptions ro;
      ro.scheduler = witness.scheduler;
      ro.seed = witness.plan_seed;
      ro.faults = &plan;
      Result<RunResult> r = RunToQuiescence(*network, ro);
      ASSERT_TRUE(r.ok()) << r.status();
      if (!r->quiesced || r->output != report->reference) ++still_diverging;
    }
    EXPECT_EQ(still_diverging, 0u)
        << "shrunk schedule is not 1-minimal: " << still_diverging
        << " single-event removals still diverge";
  }
}

// ---------------------------------------------------------------------------
// Record/replay traces.
// ---------------------------------------------------------------------------

TraceRecord WitnessTrace(const Scenario& s, const ConfluenceReport& report,
                         const DivergenceWitness& witness,
                         const std::string& scenario_name) {
  TraceRecord trace;
  trace.scenario = scenario_name;
  trace.policy = "hash";
  trace.policy_salt = 1;
  trace.model = s.model.ToString();
  for (Value n : s.nodes) trace.nodes.push_back(n.payload());
  s.input.ForEachFact([&](uint32_t rel, const Tuple& t) {
    trace.input.push_back(Fact(rel, t));
  });
  trace.scheduler = witness.scheduler;
  trace.scheduler_seed = witness.plan_seed;
  trace.events = witness.events;
  trace.choices = witness.choices;
  report.reference.ForEachFact([&](uint32_t rel, const Tuple& t) {
    trace.expected_output.push_back(Fact(rel, t));
  });
  witness.observed.ForEachFact([&](uint32_t rel, const Tuple& t) {
    trace.observed_output.push_back(Fact(rel, t));
  });
  return trace;
}

TEST(TraceTest, JsonRoundTripPreservesEveryField) {
  TraceRecord trace;
  trace.scenario = "racy-election";
  trace.policy = "hash";
  trace.policy_salt = 42;
  trace.model = "original";
  trace.nodes = {900, 901, 902};
  trace.input = {Fact("P", {V(1)}), Fact("P", {V(2)})};
  trace.scheduler = RunOptions::SchedulerKind::kAdversarialDelay;
  trace.scheduler_seed = 77;
  trace.deliver_prob = 0.25;
  trace.max_delay = 9;
  trace.max_transitions = 12345;
  net::FaultEvent dup, drop, reorder, part, crash;
  dup.kind = net::FaultEvent::Kind::kDuplicate;
  dup.send_seq = 3;
  dup.copies = 2;
  drop.kind = net::FaultEvent::Kind::kDrop;
  drop.send_seq = 5;
  drop.deliver_at = 20;
  drop.attempts = 2;
  reorder.kind = net::FaultEvent::Kind::kReorder;
  reorder.send_seq = 7;
  reorder.position = 1;
  part.kind = net::FaultEvent::Kind::kPartition;
  part.tick = 4;
  part.window = 6;
  part.node_a = 0;
  part.node_b = 2;
  crash.kind = net::FaultEvent::Kind::kCrash;
  crash.tick = 9;
  crash.node = 1;
  trace.events = {dup, drop, reorder, part, crash};
  net::Scheduler::Choice choice;
  choice.node_index = 2;
  choice.deliveries = {0, 3};
  trace.choices = {choice};
  trace.expected_output = {Fact("First", {V(1)})};
  trace.observed_output = {Fact("First", {V(1)}), Fact("First", {V(2)})};

  Result<std::string> json = SerializeTrace(trace);
  ASSERT_TRUE(json.ok()) << json.status();
  Result<TraceRecord> parsed = ParseTrace(*json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->version, trace.version);
  EXPECT_EQ(parsed->scenario, trace.scenario);
  EXPECT_EQ(parsed->policy, trace.policy);
  EXPECT_EQ(parsed->policy_salt, trace.policy_salt);
  EXPECT_EQ(parsed->model, trace.model);
  EXPECT_EQ(parsed->nodes, trace.nodes);
  EXPECT_EQ(parsed->input, trace.input);
  EXPECT_EQ(parsed->scheduler, trace.scheduler);
  EXPECT_EQ(parsed->scheduler_seed, trace.scheduler_seed);
  EXPECT_EQ(parsed->deliver_prob, trace.deliver_prob);
  EXPECT_EQ(parsed->max_delay, trace.max_delay);
  EXPECT_EQ(parsed->max_transitions, trace.max_transitions);
  EXPECT_EQ(parsed->events, trace.events);
  ASSERT_EQ(parsed->choices.size(), 1u);
  EXPECT_EQ(parsed->choices[0].node_index, choice.node_index);
  EXPECT_EQ(parsed->choices[0].deliveries, choice.deliveries);
  EXPECT_EQ(parsed->expected_output, trace.expected_output);
  EXPECT_EQ(parsed->observed_output, trace.observed_output);

  // Serialization is stable: a round-tripped trace dumps identically.
  Result<std::string> again = SerializeTrace(*parsed);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, *json);
}

TEST(TraceTest, ParseRejectsMalformedDocuments) {
  EXPECT_FALSE(ParseTrace("not json").ok());
  EXPECT_FALSE(ParseTrace("[]").ok());
  EXPECT_FALSE(ParseTrace("{\"version\": 1}").ok());
  EXPECT_FALSE(ParseTrace("{\"version\": 99}").ok());
}

TEST(TraceTest, DivergenceWitnessReplaysThroughTrace) {
  // End-to-end: oracle finds a divergence, the witness serializes to JSON,
  // parses back, and ReplayTrace reproduces the recorded divergence.
  Scenario s = RacyElection(3, 1);
  ConfluenceOptions opts;
  opts.fault_plans = 32;
  opts.seed = 1;
  opts.schedulers = {RunOptions::SchedulerKind::kRoundRobin};
  Result<ConfluenceReport> report = CheckConfluence(s.Factory(), opts);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_FALSE(report->confluent());

  TraceRecord trace =
      WitnessTrace(s, *report, report->divergences[0], "racy-election");
  Result<std::string> json = SerializeTrace(trace);
  ASSERT_TRUE(json.ok()) << json.status();
  Result<TraceRecord> parsed = ParseTrace(*json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  Result<ReplayOutcome> outcome = ReplayTrace(s.Factory(), *parsed);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->reproduced_output);
  EXPECT_TRUE(outcome->reproduced_choices);
  EXPECT_TRUE(outcome->diverged);
}

}  // namespace
}  // namespace calm::transducer
