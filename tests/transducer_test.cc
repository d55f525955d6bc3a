#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "queries/graph_queries.h"
#include "transducer/coordination.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/schema.h"
#include "transducer/strategies.h"
#include "workload/graph_gen.h"

namespace calm::transducer {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

// Example 4.1's policy P1: E(a, b) goes to node 1 if a is odd, else node 2.
class OddEvenPolicy : public DistributionPolicy {
 public:
  std::set<Value> NodesFor(const Fact& fact) const override {
    return {fact.args[0].payload() % 2 == 1 ? V(1) : V(2)};
  }
  std::string name() const override { return "odd-even"; }
};

// Example 4.1's domain assignment alpha: odd -> {1}, even -> {2}.
class OddEvenDomainPolicy : public DistributionPolicy {
 public:
  std::set<Value> NodesFor(const Fact& fact) const override {
    std::set<Value> out;
    for (Value v : fact.args) {
      for (Value n : NodesForValue(v)) out.insert(n);
    }
    return out;
  }
  bool is_domain_guided() const override { return true; }
  std::set<Value> NodesForValue(Value value) const override {
    return {value.payload() % 2 == 1 ? V(1) : V(2)};
  }
  std::string name() const override { return "odd-even-domain"; }
};

// The SP-Datalog specimen O = V \ S: non-monotone but in Mdistinct.
std::unique_ptr<Query> MakeVMinusS() {
  return std::make_unique<NativeQuery>(
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
}

Instance ExpectedOutput(const Query& q, const Instance& in) {
  Result<Instance> r = q.Eval(in);
  EXPECT_TRUE(r.ok());
  return r.ok() ? r.value() : Instance{};
}

// Runs `transducer` on (nodes, policy, input) under round-robin + random
// schedules and expects the consistent output to equal Q(input).
void ExpectComputes(const Transducer& transducer, const Query& query,
                    const Network& nodes, const DistributionPolicy& policy,
                    const Instance& input, ModelOptions model) {
  std::unique_ptr<TransducerNetwork> holder;
  auto make = [&]() -> Result<TransducerNetwork*> {
    holder = std::make_unique<TransducerNetwork>(nodes, &transducer, &policy,
                                                 model);
    CALM_RETURN_IF_ERROR(holder->Initialize(input));
    return holder.get();
  };
  ConsistencyOptions co;
  co.random_runs = 3;
  Result<Instance> out = RunConsistently(make, co);
  ASSERT_TRUE(out.ok()) << transducer.name() << ": " << out.status();
  EXPECT_EQ(out.value(), ExpectedOutput(query, input)) << transducer.name();
}

// ---------------------------------------------------------------------------
// Policies and distribution (Example 4.1)
// ---------------------------------------------------------------------------

TEST(PolicyTest, Example41GeneralPolicy) {
  Instance i{Fact("E", {V(1), V(3)}), Fact("E", {V(3), V(4)}),
             Fact("E", {V(4), V(6)})};
  OddEvenPolicy p1;
  std::map<Value, Instance> dist = Distribute(p1, {V(1), V(2)}, i);
  EXPECT_EQ(dist[V(1)].size(), 2u);  // E(1,3), E(3,4)
  EXPECT_EQ(dist[V(2)].size(), 1u);  // E(4,6)
  EXPECT_TRUE(dist[V(2)].Contains(Fact("E", {V(4), V(6)})));
}

TEST(PolicyTest, Example41DomainGuidedPolicy) {
  Instance i{Fact("E", {V(1), V(3)}), Fact("E", {V(3), V(4)}),
             Fact("E", {V(4), V(6)})};
  OddEvenDomainPolicy p2;
  std::map<Value, Instance> dist = Distribute(p2, {V(1), V(2)}, i);
  // Node 1 gets facts containing an odd value; node 2 even.
  EXPECT_EQ(dist[V(1)].size(), 2u);  // E(1,3), E(3,4)
  EXPECT_EQ(dist[V(2)].size(), 2u);  // E(3,4), E(4,6) — replication!
  EXPECT_TRUE(dist[V(1)].Contains(Fact("E", {V(3), V(4)})));
  EXPECT_TRUE(dist[V(2)].Contains(Fact("E", {V(3), V(4)})));
}

TEST(PolicyTest, PoliciesCoverAllNodesNonempty) {
  Network nodes{V(1), V(2), V(3)};
  HashPolicy hash(nodes);
  HashDomainGuidedPolicy dom(nodes);
  Fact f("E", {V(7), V(8)});
  EXPECT_FALSE(hash.NodesFor(f).empty());
  EXPECT_FALSE(dom.NodesFor(f).empty());
  EXPECT_TRUE(dom.is_domain_guided());
  EXPECT_FALSE(hash.is_domain_guided());
}

// ---------------------------------------------------------------------------
// System relations (Example 4.2)
// ---------------------------------------------------------------------------

TEST(NetworkTest, SystemFactsPerExample42) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  OddEvenPolicy policy;
  Network nodes{V(1), V(2)};
  TransducerNetwork network(nodes, transducer.get(), &policy,
                            ModelOptions::PolicyAware());
  Instance input{Fact("E", {V(1), V(3)}), Fact("E", {V(3), V(4)}),
                 Fact("E", {V(4), V(6)})};
  ASSERT_TRUE(network.Initialize(input).ok());

  Result<Instance> s = network.SystemFactsFor(V(1), Instance{});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->Contains(Fact("Id", {V(1)})));
  EXPECT_TRUE(s->Contains(Fact("All", {V(1)})));
  EXPECT_TRUE(s->Contains(Fact("All", {V(2)})));
  // A = N + adom(local) = {1,2} + {1,3,4}.
  for (uint64_t a : {1, 2, 3, 4}) {
    EXPECT_TRUE(s->Contains(Fact("MyAdom", {V(a)}))) << a;
  }
  EXPECT_FALSE(s->Contains(Fact("MyAdom", {V(6)})));
  // policy_E(a, b) for odd a over A.
  EXPECT_TRUE(s->Contains(Fact("policy_E", {V(3), V(2)})));
  EXPECT_FALSE(s->Contains(Fact("policy_E", {V(4), V(3)})));
}

TEST(NetworkTest, NoAllModelHidesAllAndShrinksA) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  AllToOnePolicy policy(V(1));
  Network nodes{V(1), V(2)};
  TransducerNetwork network(nodes, transducer.get(), &policy,
                            ModelOptions::PolicyAwareNoAll());
  Instance input{Fact("E", {V(5), V(6)})};
  ASSERT_TRUE(network.Initialize(input).ok());
  Result<Instance> s = network.SystemFactsFor(V(1), Instance{});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->TuplesOf(InternName("All")).empty());
  EXPECT_TRUE(s->Contains(Fact("MyAdom", {V(1)})));   // self
  EXPECT_FALSE(s->Contains(Fact("MyAdom", {V(2)})));  // other node hidden
  EXPECT_TRUE(s->Contains(Fact("MyAdom", {V(5)})));
}

TEST(NetworkTest, ObliviousModelHidesIdAndAll) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  AllToOnePolicy policy(V(1));
  Network nodes{V(1), V(2)};
  TransducerNetwork network(nodes, transducer.get(), &policy,
                            ModelOptions::Oblivious());
  ASSERT_TRUE(network.Initialize(Instance{Fact("E", {V(5), V(6)})}).ok());
  Result<Instance> s = network.SystemFactsFor(V(1), Instance{});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->empty());  // oblivious: no Id, no All, not policy-aware
}

// ---------------------------------------------------------------------------
// Broadcast strategy computes monotone queries (F0 direction of Cor. 4.6)
// ---------------------------------------------------------------------------

TEST(BroadcastStrategyTest, ComputesTcOnVariousNetworks) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  Instance input = workload::RandomGraph(7, 0.25, /*seed=*/5);
  for (size_t n : {1u, 2u, 3u}) {
    Network nodes;
    for (size_t k = 0; k < n; ++k) nodes.push_back(V(100 + k));
    HashPolicy policy(nodes, /*salt=*/n);
    ExpectComputes(*transducer, *tc, nodes, policy, input,
                   ModelOptions::Original());
  }
}

TEST(BroadcastStrategyTest, WorksInObliviousModel) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  Network nodes{V(100), V(101)};
  HashPolicy policy(nodes);
  ExpectComputes(*transducer, *tc, nodes, policy, workload::Cycle(4),
                 ModelOptions::Oblivious());
}

TEST(BroadcastStrategyTest, WrongForNonMonotoneQuery) {
  // V \ S with broadcast: a node may output O(a) before S(a) arrives, and
  // outputs are never retracted — the network does NOT compute the query.
  auto q = MakeVMinusS();
  auto transducer = MakeBroadcastTransducer(q.get());
  Network nodes{V(100), V(101)};
  // Adversarial split: V(1) on one node, S(1) on the other.
  std::map<Fact, std::set<Value>> overrides{
      {Fact("V", {V(1)}), {V(100)}},
      {Fact("S", {V(1)}), {V(101)}},
  };
  HashPolicy base(nodes);
  OverridePolicy policy(&base, overrides);
  Instance input{Fact("V", {V(1)}), Fact("S", {V(1)})};

  TransducerNetwork network(nodes, transducer.get(), &policy,
                            ModelOptions::Original());
  ASSERT_TRUE(network.Initialize(input).ok());
  RunOptions ro;
  Result<RunResult> r = RunToQuiescence(network, ro);
  ASSERT_TRUE(r.ok()) << r.status();
  // Q(input) is empty, but the broadcast network leaks O(1).
  EXPECT_TRUE(r->output.Contains(Fact("O", {V(1)})));
}

// ---------------------------------------------------------------------------
// Absence strategy computes Mdistinct queries (Theorem 4.3 construction)
// ---------------------------------------------------------------------------

TEST(AbsenceStrategyTest, ComputesVMinusS) {
  auto q = MakeVMinusS();
  auto transducer = MakeAbsenceTransducer(q.get());
  Instance input{Fact("V", {V(1)}), Fact("V", {V(2)}), Fact("V", {V(3)}),
                 Fact("S", {V(2)})};
  for (size_t n : {1u, 2u, 3u}) {
    Network nodes;
    for (size_t k = 0; k < n; ++k) nodes.push_back(V(100 + k));
    HashPolicy policy(nodes, /*salt=*/7 * n);
    ExpectComputes(*transducer, *q, nodes, policy, input,
                   ModelOptions::PolicyAware());
  }
}

TEST(AbsenceStrategyTest, AdversarialSplitStillCorrect) {
  auto q = MakeVMinusS();
  auto transducer = MakeAbsenceTransducer(q.get());
  Network nodes{V(100), V(101)};
  std::map<Fact, std::set<Value>> overrides{
      {Fact("V", {V(1)}), {V(100)}},
      {Fact("S", {V(1)}), {V(101)}},
  };
  HashPolicy base(nodes);
  OverridePolicy policy(&base, overrides);
  Instance input{Fact("V", {V(1)}), Fact("S", {V(1)})};
  ExpectComputes(*transducer, *q, nodes, policy, input,
                 ModelOptions::PolicyAware());
}

TEST(AbsenceStrategyTest, WorksWithoutAllRelation) {
  // Theorem 4.5: the construction never reads All.
  auto q = MakeVMinusS();
  auto transducer = MakeAbsenceTransducer(q.get());
  Network nodes{V(100), V(101)};
  HashPolicy policy(nodes);
  Instance input{Fact("V", {V(1)}), Fact("V", {V(2)}), Fact("S", {V(2)})};
  ExpectComputes(*transducer, *q, nodes, policy, input,
                 ModelOptions::PolicyAwareNoAll());
}

// ---------------------------------------------------------------------------
// Domain-request strategy computes Mdisjoint queries (Theorem 4.4)
// ---------------------------------------------------------------------------

TEST(DomainRequestStrategyTest, ComputesWinMove) {
  auto q = queries::MakeWinMove();
  auto transducer = MakeDomainRequestTransducer(q.get());
  Instance input{Fact("Move", {V(0), V(1)}), Fact("Move", {V(1), V(2)}),
                 Fact("Move", {V(3), V(4)}), Fact("Move", {V(4), V(3)})};
  for (size_t n : {1u, 2u, 3u}) {
    Network nodes;
    for (size_t k = 0; k < n; ++k) nodes.push_back(V(100 + k));
    HashDomainGuidedPolicy policy(nodes, /*salt=*/n);
    ExpectComputes(*transducer, *q, nodes, policy, input,
                   ModelOptions::PolicyAware());
  }
}

TEST(DomainRequestStrategyTest, ComputesComplementTc) {
  auto q = queries::MakeComplementTransitiveClosure();
  auto transducer = MakeDomainRequestTransducer(q.get());
  Instance input = workload::Path(4);
  Network nodes{V(100), V(101)};
  HashDomainGuidedPolicy policy(nodes);
  ExpectComputes(*transducer, *q, nodes, policy, input,
                 ModelOptions::PolicyAware());
}

TEST(DomainRequestStrategyTest, WorksWithoutAllRelation) {
  auto q = queries::MakeWinMove();
  auto transducer = MakeDomainRequestTransducer(q.get());
  Network nodes{V(100), V(101)};
  HashDomainGuidedPolicy policy(nodes);
  Instance input{Fact("Move", {V(0), V(1)}), Fact("Move", {V(1), V(2)})};
  ExpectComputes(*transducer, *q, nodes, policy, input,
                 ModelOptions::PolicyAwareNoAll());
}

TEST(DomainRequestStrategyTest, Example41DomainPolicy) {
  auto q = queries::MakeComplementTransitiveClosure();
  auto transducer = MakeDomainRequestTransducer(q.get());
  Network nodes{V(1), V(2)};
  OddEvenDomainPolicy policy;
  Instance input{Fact("E", {V(1), V(3)}), Fact("E", {V(3), V(4)}),
                 Fact("E", {V(4), V(6)})};
  ExpectComputes(*transducer, *q, nodes, policy, input,
                 ModelOptions::PolicyAware());
}

// ---------------------------------------------------------------------------
// Coordination-freeness (Definition 3): ideal policy + heartbeat-only prefix
// ---------------------------------------------------------------------------

TEST(CoordinationFreenessTest, BroadcastHeartbeatPrefix) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  Instance input = workload::Cycle(4);
  Network nodes{V(100), V(101), V(102)};
  Result<bool> ok = HeartbeatPrefixComputes(
      *transducer, ModelOptions::Original(), nodes, V(101), input,
      ExpectedOutput(*tc, input));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok.value());
}

TEST(CoordinationFreenessTest, AbsenceHeartbeatPrefix) {
  auto q = MakeVMinusS();
  auto transducer = MakeAbsenceTransducer(q.get());
  Instance input{Fact("V", {V(1)}), Fact("V", {V(2)}), Fact("S", {V(2)})};
  Network nodes{V(100), V(101)};
  Result<bool> ok = HeartbeatPrefixComputes(
      *transducer, ModelOptions::PolicyAware(), nodes, V(100), input,
      ExpectedOutput(*q, input));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok.value());
}

TEST(CoordinationFreenessTest, DomainRequestHeartbeatPrefix) {
  auto q = queries::MakeWinMove();
  auto transducer = MakeDomainRequestTransducer(q.get());
  Instance input{Fact("Move", {V(0), V(1)}), Fact("Move", {V(1), V(2)})};
  Network nodes{V(100), V(101)};
  Result<bool> ok = HeartbeatPrefixComputes(
      *transducer, ModelOptions::PolicyAware(), nodes, V(101), input,
      ExpectedOutput(*q, input));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok.value());
}

// ---------------------------------------------------------------------------
// Proof replay: F1 <= Mdistinct (Theorem 4.3's policy-splitting argument)
// ---------------------------------------------------------------------------

TEST(ProofReplayTest, Theorem43PolicySplitting) {
  // Pi computes Q (= V \ S, in Mdistinct). Take I and a domain-distinct J.
  // Under P2 (J assigned entirely to y), node x's local input on I+J equals
  // its local input on I under the ideal P1, so a heartbeat-only prefix at x
  // still outputs Q(I) — and because the run extends to a fair run
  // computing Q(I+J), Q(I) <= Q(I+J).
  auto q = MakeVMinusS();
  auto transducer = MakeAbsenceTransducer(q.get());
  Network nodes{V(100), V(101)};
  Value x = V(100);
  Value y = V(101);

  Instance i{Fact("V", {V(1)}), Fact("S", {V(1)}), Fact("V", {V(2)})};
  Instance j{Fact("V", {V(7)}), Fact("S", {V(8)})};  // domain distinct
  ASSERT_TRUE(IsDomainDistinctFrom(j, i));

  AllToOnePolicy p1(x);
  std::map<Fact, std::set<Value>> to_y;
  j.ForEachFact([&](uint32_t name, const Tuple& t) {
    to_y[Fact(name, t)] = {y};
  });
  OverridePolicy p2(&p1, to_y);

  // Heartbeat-only prefix at x on input I+J under P2 produces Q(I).
  TransducerNetwork network(nodes, transducer.get(), &p2,
                            ModelOptions::PolicyAware());
  ASSERT_TRUE(network.Initialize(Instance::Union(i, j)).ok());
  EXPECT_EQ(network.local_input(x), i);  // x cannot tell I+J from I
  for (int k = 0; k < 8; ++k) ASSERT_TRUE(network.Heartbeat(x).ok());
  Instance q_i = ExpectedOutput(*q, i);
  EXPECT_TRUE(q_i.IsSubsetOf(network.GlobalOutput()));

  // Extending to a full fair run yields Q(I+J), so Q(I) <= Q(I+J).
  RunOptions ro;
  Result<RunResult> rest = RunToQuiescence(network, ro);
  ASSERT_TRUE(rest.ok());
  Instance q_ij = ExpectedOutput(*q, Instance::Union(i, j));
  EXPECT_EQ(rest->output, q_ij);
  EXPECT_TRUE(q_i.IsSubsetOf(q_ij));
}

// ---------------------------------------------------------------------------
// Stats sanity
// ---------------------------------------------------------------------------

TEST(StatsTest, SingleNodeSendsNothing) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  Network nodes{V(100)};
  HashPolicy policy(nodes);
  TransducerNetwork network(nodes, transducer.get(), &policy,
                            ModelOptions::Original());
  ASSERT_TRUE(network.Initialize(workload::Path(3)).ok());
  Result<RunResult> r = RunToQuiescence(network);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.messages_sent, 0u);
  EXPECT_GT(r->stats.transitions, 0u);
}

TEST(StatsTest, MessagesScaleWithFanout) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  Instance input = workload::Path(5);  // 4 facts
  size_t prev = 0;
  for (size_t n : {2u, 3u, 4u}) {
    Network nodes;
    for (size_t k = 0; k < n; ++k) nodes.push_back(V(100 + k));
    HashPolicy policy(nodes);
    TransducerNetwork network(nodes, transducer.get(), &policy,
                              ModelOptions::Original());
    ASSERT_TRUE(network.Initialize(input).ok());
    Result<RunResult> r = RunToQuiescence(network);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->quiesced);
    // Each fact is broadcast once to n-1 recipients: 4 * (n-1) messages.
    EXPECT_EQ(r->stats.messages_sent, 4 * (n - 1));
    EXPECT_GT(r->stats.messages_sent, prev);
    prev = r->stats.messages_sent;
  }
}


// ---------------------------------------------------------------------------
// Error paths and negative cases
// ---------------------------------------------------------------------------

TEST(SchemaValidationTest, RejectsNameCollisions) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  TransducerSchema bad = transducer->schema();
  // Colliding a memory relation with an input relation name.
  ASSERT_TRUE(bad.mem.AddRelation("E", 2).ok());
  EXPECT_FALSE(bad.Validate(ModelOptions::Original()).ok());
}

TEST(SchemaValidationTest, SystemSchemaTracksModel) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  const TransducerSchema& schema = transducer->schema();
  Schema full = schema.SystemSchema(ModelOptions::PolicyAware());
  EXPECT_TRUE(full.ContainsName("Id"));
  EXPECT_TRUE(full.ContainsName("All"));
  EXPECT_TRUE(full.ContainsName("MyAdom"));
  EXPECT_TRUE(full.ContainsName("policy_E"));
  Schema oblivious = schema.SystemSchema(ModelOptions::Oblivious());
  EXPECT_TRUE(oblivious.empty());
  Schema noall = schema.SystemSchema(ModelOptions::PolicyAwareNoAll());
  EXPECT_FALSE(noall.ContainsName("All"));
  EXPECT_TRUE(noall.ContainsName("MyAdom"));
}

TEST(NetworkErrorTest, RejectsEmptyNetworkAndBadInput) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  HashPolicy policy({V(900)});
  TransducerNetwork empty({}, transducer.get(), &policy,
                          ModelOptions::Original());
  EXPECT_FALSE(empty.Initialize(Instance{}).ok());

  TransducerNetwork net({V(900)}, transducer.get(), &policy,
                        ModelOptions::Original());
  // Input fact outside Yin.
  EXPECT_FALSE(net.Initialize(Instance{Fact("Zed", {V(1)})}).ok());
  EXPECT_FALSE(net.Initialize(Instance{Fact("E", {V(1)})}).ok());  // arity
}

TEST(NetworkErrorTest, StepOnUnknownNodeFails) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  HashPolicy policy({V(900)});
  TransducerNetwork net({V(900)}, transducer.get(), &policy,
                        ModelOptions::Original());
  ASSERT_TRUE(net.Initialize(Instance{}).ok());
  EXPECT_FALSE(net.StepNode(V(999), {}).ok());
}

TEST(NetworkErrorTest, BufferAccessorsRejectUnknownNodes) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  HashPolicy policy({V(900)});
  TransducerNetwork net({V(900)}, transducer.get(), &policy,
                        ModelOptions::Original());
  // Before Initialize no node has a buffer yet.
  EXPECT_THROW(net.buffer(V(900)), std::out_of_range);
  EXPECT_THROW(net.mutable_buffer(V(900)), std::out_of_range);
  ASSERT_TRUE(net.Initialize(Instance{}).ok());
  EXPECT_TRUE(net.buffer(V(900)).empty());
  EXPECT_TRUE(net.mutable_buffer(V(900)).empty());
  EXPECT_THROW(net.buffer(V(999)), std::out_of_range);
  EXPECT_THROW(net.mutable_buffer(V(999)), std::out_of_range);
  EXPECT_THROW(net.state(V(999)), std::out_of_range);
  EXPECT_THROW(net.local_input(V(999)), std::out_of_range);
}

TEST(CoordinationTest, HeartbeatPrefixFailsForWrongExpectation) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  Instance input = workload::Path(3);
  Instance wrong{Fact("T", {V(5), V(6)})};
  Result<bool> hb = HeartbeatPrefixComputes(*transducer,
                                            ModelOptions::Original(),
                                            {V(900), V(901)}, V(900), input,
                                            wrong, /*max_heartbeats=*/8);
  ASSERT_TRUE(hb.ok());
  EXPECT_FALSE(hb.value());
}

TEST(RunnerTest, MaxTransitionsGuardsNonQuiescence) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  Network nodes{V(900), V(901)};
  HashPolicy policy(nodes);
  TransducerNetwork net(nodes, transducer.get(), &policy,
                        ModelOptions::Original());
  ASSERT_TRUE(net.Initialize(workload::Path(4)).ok());
  RunOptions ro;
  ro.max_transitions = 2;  // too few to quiesce
  Result<RunResult> r = RunToQuiescence(net, ro);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->quiesced);
}

}  // namespace
}  // namespace calm::transducer
