// Tests for the bulk-synchronous (BSP) network semantics: sends staged
// during superstep k are delivered exactly at superstep k + 1, barrier
// quiescence, the perfect-network restriction, and async-vs-BSP output
// byte-identity for every Figure 2 strategy.

#include <memory>

#include <gtest/gtest.h>

#include "datalog/program.h"
#include "net/fault.h"
#include "queries/graph_queries.h"
#include "queries/paper_programs.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/schema.h"
#include "transducer/strategies.h"
#include "workload/graph_gen.h"

namespace calm::transducer {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

TEST(Bsp, SendsAreStagedUntilTheBarrier) {
  auto tcq = queries::MakeTransitiveClosure();
  auto bcast = MakeBroadcastTransducer(tcq.get());
  Network nodes{V(900), V(901)};
  HashPolicy policy(nodes);
  TransducerNetwork net(nodes, bcast.get(), &policy,
                        ModelOptions::Original());
  Instance input = workload::RandomGraph(6, 0.4, 3);
  ASSERT_TRUE(net.Initialize(input).ok());
  net.set_semantics(NetworkSemantics::kBsp);

  // Superstep 0: both nodes heartbeat; every send is staged behind the
  // barrier, so no buffer sees a message within the sending superstep.
  ASSERT_TRUE(net.StepNode(nodes[0], {}).ok());
  ASSERT_TRUE(net.StepNode(nodes[1], {}).ok());
  EXPECT_GT(net.StagedCount(), 0u);
  EXPECT_TRUE(net.BuffersEmpty());
  // A staged send is still in flight: the network must not look quiescent.
  EXPECT_FALSE(net.Idle());

  // The barrier releases the whole superstep's sends at once: deliverable
  // exactly from superstep 1 on.
  net.BspBarrier();
  EXPECT_EQ(net.StagedCount(), 0u);
  EXPECT_FALSE(net.BuffersEmpty());
}

TEST(Bsp, AsyncModeStagesNothing) {
  auto tcq = queries::MakeTransitiveClosure();
  auto bcast = MakeBroadcastTransducer(tcq.get());
  Network nodes{V(900), V(901)};
  HashPolicy policy(nodes);
  TransducerNetwork net(nodes, bcast.get(), &policy,
                        ModelOptions::Original());
  ASSERT_TRUE(net.Initialize(workload::Path(3)).ok());
  ASSERT_TRUE(net.StepNode(nodes[0], {}).ok());
  EXPECT_EQ(net.StagedCount(), 0u);  // async sends go straight to buffers
}

TEST(Bsp, RejectsFaultPlans) {
  auto tcq = queries::MakeTransitiveClosure();
  auto bcast = MakeBroadcastTransducer(tcq.get());
  Network nodes{V(900), V(901)};
  HashPolicy policy(nodes);

  // The runner refuses the combination up front...
  TransducerNetwork net(nodes, bcast.get(), &policy,
                        ModelOptions::Original());
  ASSERT_TRUE(net.Initialize(workload::Path(3)).ok());
  net::FaultPlan plan = net::FaultPlan::Random(1, net::FaultProfile::Chaos());
  RunOptions ro;
  ro.semantics = NetworkSemantics::kBsp;
  ro.faults = &plan;
  EXPECT_FALSE(RunToQuiescence(net, ro).ok());

  // ...and so does StepNode itself if a plan is attached directly.
  TransducerNetwork net2(nodes, bcast.get(), &policy,
                         ModelOptions::Original());
  ASSERT_TRUE(net2.Initialize(workload::Path(3)).ok());
  net2.set_semantics(NetworkSemantics::kBsp);
  net2.set_fault_plan(&plan);
  EXPECT_FALSE(net2.StepNode(nodes[0], {}).ok());
}

TEST(Bsp, RunsToBarrierQuiescence) {
  auto tcq = queries::MakeTransitiveClosure();
  auto bcast = MakeBroadcastTransducer(tcq.get());
  Network nodes{V(900), V(901)};
  HashPolicy policy(nodes);
  Instance input = workload::RandomGraph(6, 0.3, 1);
  Instance expected = tcq->Eval(input).value();

  TransducerNetwork net(nodes, bcast.get(), &policy,
                        ModelOptions::Original());
  ASSERT_TRUE(net.Initialize(input).ok());
  RunOptions ro;
  ro.semantics = NetworkSemantics::kBsp;
  Result<RunResult> run = RunToQuiescence(net, ro);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->quiesced);
  // At least one working superstep plus the all-heartbeat one that
  // confirmed quiescence.
  EXPECT_GE(run->supersteps, 2u);
  EXPECT_EQ(run->output, expected);

  // Fully deterministic: a second run takes the same superstep count.
  TransducerNetwork net2(nodes, bcast.get(), &policy,
                         ModelOptions::Original());
  ASSERT_TRUE(net2.Initialize(input).ok());
  Result<RunResult> rerun = RunToQuiescence(net2, ro);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->supersteps, run->supersteps);
  EXPECT_EQ(rerun->output, run->output);
}

// One Figure 2 strategy instance: query, transducer, policy, model, input.
struct StrategyCase {
  std::string name;
  const Query* query;
  std::unique_ptr<Transducer> transducer;
  std::unique_ptr<DistributionPolicy> policy;
  ModelOptions model;
  Instance input;
};

// Runs one case under async fair schedules and under BSP and asserts every
// quiescent output is byte-identical to the centralized evaluation.
void ExpectAsyncBspAgree(const StrategyCase& c) {
  Network nodes{V(900), V(901)};
  Instance expected = c.query->Eval(c.input).value();

  std::unique_ptr<TransducerNetwork> holder;
  auto make = [&]() -> Result<TransducerNetwork*> {
    holder = std::make_unique<TransducerNetwork>(nodes, c.transducer.get(),
                                                 c.policy.get(), c.model);
    CALM_RETURN_IF_ERROR(holder->Initialize(c.input));
    return holder.get();
  };
  ConsistencyOptions co;
  co.random_runs = 2;
  Result<Instance> async_out = RunConsistently(make, co);
  ASSERT_TRUE(async_out.ok()) << c.name << ": " << async_out.status().ToString();
  EXPECT_EQ(*async_out, expected) << c.name;

  TransducerNetwork net(nodes, c.transducer.get(), c.policy.get(), c.model);
  ASSERT_TRUE(net.Initialize(c.input).ok());
  RunOptions ro;
  ro.semantics = NetworkSemantics::kBsp;
  Result<RunResult> bsp = RunToQuiescence(net, ro);
  ASSERT_TRUE(bsp.ok()) << c.name << ": " << bsp.status().ToString();
  EXPECT_TRUE(bsp->quiesced) << c.name;
  EXPECT_EQ(bsp->output, expected) << c.name;
  EXPECT_EQ(bsp->output, *async_out) << c.name;
}

// The Figure 2 strategies (queries owned by the vector's closures below).
std::vector<StrategyCase> MakeFigure2Cases(
    std::vector<std::unique_ptr<Query>>* owned,
    std::vector<std::unique_ptr<datalog::DatalogQuery>>* owned_dl) {
  Network nodes{V(900), V(901)};
  std::vector<StrategyCase> cases;

  owned->push_back(queries::MakeTransitiveClosure());
  const Query* tc = owned->back().get();
  cases.push_back({"tc-broadcast", tc, MakeBroadcastTransducer(tc),
                   std::make_unique<HashPolicy>(nodes),
                   ModelOptions::Original(), workload::RandomGraph(6, 0.3, 1)});

  owned_dl->push_back(std::make_unique<datalog::DatalogQuery>(
      datalog::DatalogQuery::FromTextOrDie("O(x) :- V(x), !S(x).",
                                           "v-minus-s-sp")));
  const Query* sp = owned_dl->back().get();
  Instance sp_input{Fact("V", {V(1)}), Fact("V", {V(2)}), Fact("S", {V(2)})};
  cases.push_back({"sp-absence", sp, MakeAbsenceTransducer(sp),
                   std::make_unique<HashPolicy>(nodes),
                   ModelOptions::PolicyAware(), sp_input});

  owned->push_back(queries::MakeComplementTransitiveClosure());
  const Query* qtc = owned->back().get();
  cases.push_back({"qtc-domain-request", qtc, MakeDomainRequestTransducer(qtc),
                   std::make_unique<HashDomainGuidedPolicy>(nodes),
                   ModelOptions::PolicyAware(), workload::Path(4)});

  owned->push_back(queries::MakeWinMove());
  const Query* win = owned->back().get();
  Instance game{Fact("Move", {V(0), V(1)}), Fact("Move", {V(1), V(2)})};
  cases.push_back({"winmove-domain-request", win,
                   MakeDomainRequestTransducer(win),
                   std::make_unique<HashDomainGuidedPolicy>(nodes),
                   ModelOptions::PolicyAware(), game});
  return cases;
}

TEST(Bsp, AsyncAndBspAgreeOnEveryFigure2Strategy) {
  std::vector<std::unique_ptr<Query>> owned;
  std::vector<std::unique_ptr<datalog::DatalogQuery>> owned_dl;
  for (StrategyCase& c : MakeFigure2Cases(&owned, &owned_dl)) {
    ExpectAsyncBspAgree(c);
  }
}

TEST(Bsp, FaultedAsyncMatchesFaultlessBspWhereFairnessAllows) {
  // Chaos faults are fair (drops retransmit, crashes recover), so the async
  // run still quiesces on the same output the perfect-network BSP run
  // computes — the cross-model confluence the fuzzer asserts in bulk.
  std::vector<std::unique_ptr<Query>> owned;
  std::vector<std::unique_ptr<datalog::DatalogQuery>> owned_dl;
  for (StrategyCase& c : MakeFigure2Cases(&owned, &owned_dl)) {
    Network nodes{V(900), V(901)};
    Instance expected = c.query->Eval(c.input).value();

    net::FaultPlan plan =
        net::FaultPlan::Random(7, net::FaultProfile::Chaos());
    TransducerNetwork faulted(nodes, c.transducer.get(), c.policy.get(),
                              c.model);
    ASSERT_TRUE(faulted.Initialize(c.input).ok());
    RunOptions async_ro;
    async_ro.faults = &plan;
    Result<RunResult> async_run = RunToQuiescence(faulted, async_ro);
    ASSERT_TRUE(async_run.ok()) << c.name;
    ASSERT_TRUE(async_run->quiesced) << c.name;

    TransducerNetwork perfect(nodes, c.transducer.get(), c.policy.get(),
                              c.model);
    ASSERT_TRUE(perfect.Initialize(c.input).ok());
    RunOptions bsp_ro;
    bsp_ro.semantics = NetworkSemantics::kBsp;
    Result<RunResult> bsp_run = RunToQuiescence(perfect, bsp_ro);
    ASSERT_TRUE(bsp_run.ok()) << c.name;
    ASSERT_TRUE(bsp_run->quiesced) << c.name;

    EXPECT_EQ(async_run->output, expected) << c.name;
    EXPECT_EQ(bsp_run->output, async_run->output) << c.name;
  }
}

}  // namespace
}  // namespace calm::transducer
