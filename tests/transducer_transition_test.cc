// Transition-level regression tests for TransducerNetwork:
//   * the system facts every transition sees equal the from-scratch
//     SystemFactsFor reference, under every run mode (round-robin, seeded
//     random, a chaos fault plan with crash-restarts, BSP) and across
//     memory deletions;
//   * whole runs of the Figure 2 strategies on one seeded graph are pinned:
//     output, every RunStats field, BSP supersteps and the recorded
//     scheduler choices. Every pinned transition also steps a second time
//     without the node's EvalMemo, and the two StepOutputs must be equal;
//     domain-request runs check the invariant that lets served requests be
//     skipped;
//   * the distribution policies keep the contract the per-value system-fact
//     build relies on.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "base/fact.h"
#include "net/fault.h"
#include "queries/graph_queries.h"
#include "transducer/datalog_transducer.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/strategies.h"
#include "workload/graph_gen.h"

namespace calm::transducer {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

// Forwards to `inner`, first checking that the system facts StepNode hands
// over equal SystemFactsFor's from-scratch rebuild. Inside Step the network
// has not applied the transition yet, so the reference sees the same state;
// the stepping node is the one whose state `in.state` is.
class CheckingTransducer : public Transducer {
 public:
  explicit CheckingTransducer(const Transducer* inner) : inner_(inner) {}

  void set_network(const TransducerNetwork* network) { network_ = network; }
  size_t checks() const { return checks_; }

  const TransducerSchema& schema() const override { return inner_->schema(); }
  std::string name() const override {
    return "checking(" + inner_->name() + ")";
  }

  Result<StepOutput> Step(const StepInput& in) const override {
    std::optional<Value> self;
    for (Value n : network_->nodes()) {
      if (&network_->state(n) == &in.state) self = n;
    }
    if (!self) return InternalError("stepping node not found");
    CALM_ASSIGN_OR_RETURN(Instance reference,
                          network_->SystemFactsFor(*self, in.messages));
    if (in.system != reference) {
      return InternalError("transition " + std::to_string(checks_) +
                           " saw system facts " + in.system.ToString() +
                           ", from scratch " + reference.ToString());
    }
    ++checks_;
    return inner_->Step(in);
  }

 private:
  const Transducer* inner_;
  const TransducerNetwork* network_ = nullptr;
  mutable size_t checks_ = 0;
};

// Forwards to `inner`, stepping every transition twice: once with the
// network's EvalMemo and once with a null memo. The four StepOutput
// instances must be equal. With `check_served` (domain-request only), also
// checks on every transition the invariant behind skipping served
// requests: each sento(x, a) in state comes with the sx_R(x, t) marker of
// every local fact R(t) containing a.
class MemoCheckingTransducer : public Transducer {
 public:
  MemoCheckingTransducer(const Transducer* inner, bool check_served)
      : inner_(inner), check_served_(check_served) {}

  size_t checks() const { return checks_; }
  size_t memo_steps() const { return memo_steps_; }

  const TransducerSchema& schema() const override { return inner_->schema(); }
  std::string name() const override { return inner_->name(); }

  Result<StepOutput> Step(const StepInput& in) const override {
    if (check_served_) CALM_RETURN_IF_ERROR(CheckServed(in));
    CALM_ASSIGN_OR_RETURN(StepOutput with_memo, inner_->Step(in));
    StepInput bare = in;
    bare.memo = nullptr;
    CALM_ASSIGN_OR_RETURN(StepOutput without, inner_->Step(bare));
    if (with_memo.output != without.output ||
        with_memo.insertions != without.insertions ||
        with_memo.deletions != without.deletions ||
        with_memo.sends != without.sends) {
      return InternalError("transition " + std::to_string(checks_) +
                           " differs with and without the memo");
    }
    ++checks_;
    if (in.memo != nullptr) ++memo_steps_;
    return with_memo;
  }

 private:
  Status CheckServed(const StepInput& in) const {
    for (const Tuple& ok : in.state.TuplesOf(InternName("sento"))) {
      Status status = Status::Ok();
      in.local_input.ForEachFact([&](uint32_t rel, const Tuple& t) {
        bool contains = false;
        for (Value v : t) contains = contains || v == ok[1];
        if (!contains) return;
        Tuple addressed{ok[0]};
        addressed.append(t.begin(), t.end());
        Fact marker(InternName("sx_" + NameOf(rel)), addressed);
        if (status.ok() && !in.state.Contains(marker)) {
          status = InternalError("sento" + TupleToString(ok) +
                                 " in state without " + FactToString(marker));
        }
      });
      CALM_RETURN_IF_ERROR(status);
    }
    return Status::Ok();
  }

  const Transducer* inner_;
  bool check_served_;
  mutable size_t checks_ = 0;
  mutable size_t memo_steps_ = 0;
};

enum class Mode { kRoundRobin, kRandom, kFault, kBsp };
constexpr Mode kModes[] = {Mode::kRoundRobin, Mode::kRandom, Mode::kFault,
                           Mode::kBsp};
const char* const kModeNames[] = {"rr", "random", "fault", "bsp"};

struct ModeRun {
  Result<RunResult> result = InternalError("not run");
  net::FaultStats faults;
};

// Runs `network` (initialized) to quiescence under `mode`, recording the
// scheduler choices.
ModeRun RunInMode(TransducerNetwork& network, Mode mode, uint64_t seed) {
  RunOptions ro;
  ro.record_choices = true;
  ro.fail_on_budget = true;
  std::optional<net::FaultPlan> plan;
  switch (mode) {
    case Mode::kRoundRobin:
      break;
    case Mode::kRandom:
      ro.scheduler = RunOptions::SchedulerKind::kRandom;
      ro.seed = seed;
      break;
    case Mode::kFault:
      plan.emplace(net::FaultPlan::Random(seed, net::FaultProfile::Chaos()));
      ro.faults = &*plan;
      break;
    case Mode::kBsp:
      ro.semantics = NetworkSemantics::kBsp;
      break;
  }
  ModeRun run;
  run.result = RunToQuiescence(network, ro);
  if (plan) run.faults = plan->stats();
  return run;
}

// The SP-Datalog specimen O = V \ S: non-monotone but in Mdistinct.
std::unique_ptr<Query> MakeVMinusS() {
  return std::make_unique<NativeQuery>(
      "v-minus-s", Schema({{"V", 1}, {"S", 1}}), Schema({{"O", 1}}),
      [](const Instance& in) -> Result<Instance> {
        Instance out;
        for (const Tuple& t : in.TuplesOf(InternName("V"))) {
          if (!in.TuplesOf(InternName("S")).contains(t)) {
            out.Insert(Fact("O", t));
          }
        }
        return out;
      });
}

// One seeded graph for every test here, and the absence input drawn from
// it: V = edge sources, S = edge targets (so O = the graph's sources).
Instance Graph() { return workload::RandomGraphM(16, 24, /*seed=*/21); }

Instance SourcesAndTargets(const Instance& graph) {
  Instance out;
  graph.ForEachFact([&](uint32_t, const Tuple& t) {
    out.Insert(Fact("V", {t[0]}));
    out.Insert(Fact("S", {t[1]}));
  });
  return out;
}

// Runs `transducer` wrapped in a MemoCheckingTransducer (`check_served`
// for domain-request) inside a CheckingTransducer under every mode and
// expects every run to quiesce with `expected`, every transition checked.
// Adds the fault runs' crash-restarts to `*crashes`.
void ExpectCachedSystemFactsMatch(const Transducer& transducer,
                                  const Instance& input,
                                  const Instance& expected,
                                  const DistributionPolicy& policy,
                                  const Network& nodes, ModelOptions model,
                                  size_t* crashes,
                                  bool check_served = false) {
  for (Mode mode : kModes) {
    for (uint64_t seed : {3u, 8u}) {
      if ((mode == Mode::kRoundRobin || mode == Mode::kBsp) && seed != 3) {
        continue;  // deterministic modes: one run is enough
      }
      SCOPED_TRACE(transducer.name() + " " + model.ToString() + " " +
                   kModeNames[static_cast<int>(mode)] + " seed " +
                   std::to_string(seed));
      MemoCheckingTransducer memo_checking(&transducer, check_served);
      CheckingTransducer checking(&memo_checking);
      TransducerNetwork network(nodes, &checking, &policy, model);
      checking.set_network(&network);
      ASSERT_TRUE(network.Initialize(input).ok());
      ModeRun run = RunInMode(network, mode, seed);
      ASSERT_TRUE(run.result.ok()) << run.result.status();
      EXPECT_TRUE(run.result->quiesced);
      EXPECT_EQ(run.result->output, expected);
      EXPECT_EQ(checking.checks(), run.result->stats.transitions);
      EXPECT_EQ(memo_checking.checks(), run.result->stats.transitions);
      *crashes += run.faults.crashes;
    }
  }
}

TEST(CachedSystemFactsTest, DomainRequestMatchesReferenceInEveryMode) {
  auto qtc = queries::MakeComplementTransitiveClosure();
  auto transducer = MakeDomainRequestTransducer(qtc.get());
  const Instance graph = Graph();
  Result<Instance> expected = qtc->Eval(graph);
  ASSERT_TRUE(expected.ok());
  Network nodes{V(900), V(901), V(902)};
  HashDomainGuidedPolicy policy(nodes);
  size_t crashes = 0;
  for (ModelOptions model :
       {ModelOptions::PolicyAware(), ModelOptions::PolicyAwareNoAll()}) {
    ExpectCachedSystemFactsMatch(*transducer, graph, *expected, policy,
                                 nodes, model, &crashes,
                                 /*check_served=*/true);
  }
  EXPECT_GT(crashes, 0u) << "no fault run exercised a crash-restart";
}

TEST(CachedSystemFactsTest, DomainRequestWinMoveMatchesReferenceInEveryMode) {
  auto wm = queries::MakeWinMove();
  auto transducer = MakeDomainRequestTransducer(wm.get());
  Instance moves;
  Graph().ForEachFact(
      [&](uint32_t, const Tuple& t) { moves.Insert(Fact("Move", t)); });
  Result<Instance> expected = wm->Eval(moves);
  ASSERT_TRUE(expected.ok());
  Network nodes{V(900), V(901), V(902)};
  HashDomainGuidedPolicy policy(nodes, /*salt=*/4);
  size_t crashes = 0;
  ExpectCachedSystemFactsMatch(*transducer, moves, *expected, policy, nodes,
                               ModelOptions::PolicyAware(), &crashes,
                               /*check_served=*/true);
  EXPECT_GT(crashes, 0u) << "no fault run exercised a crash-restart";
}

TEST(CachedSystemFactsTest, AbsenceMatchesReferenceInEveryMode) {
  auto q = MakeVMinusS();
  auto transducer = MakeAbsenceTransducer(q.get());
  const Instance input = SourcesAndTargets(Graph());
  Result<Instance> expected = q->Eval(input);
  ASSERT_TRUE(expected.ok());
  Network nodes{V(900), V(901), V(902)};
  HashPolicy policy(nodes);
  size_t crashes = 0;
  for (ModelOptions model :
       {ModelOptions::PolicyAware(), ModelOptions::PolicyAwareNoAll()}) {
    ExpectCachedSystemFactsMatch(*transducer, input, *expected, policy,
                                 nodes, model, &crashes);
  }
  EXPECT_GT(crashes, 0u) << "no fault run exercised a crash-restart";
}

// Places every fact on node (first value mod 3).
class ModThreePolicy : public DistributionPolicy {
 public:
  explicit ModThreePolicy(Network nodes) : nodes_(std::move(nodes)) {}
  std::set<Value> NodesFor(const Fact& fact) const override {
    return {nodes_[fact.args[0].payload() % 3]};
  }
  std::string name() const override { return "mod-three"; }

 private:
  Network nodes_;
};

TEST(CachedSystemFactsTest, MemoryDeletionShrinksTheAmbientSet) {
  // A node that receives ping(x) stores tmp(x) and deletes it again at its
  // next transition. x is some other node's local value, so it leaves
  // adom(state) and A shrinks back. (Qdel cannot read tmp itself: a head
  // relation shadows D's facts; it reads MyAdom instead.)
  TransducerSchema schema;
  schema.in = Schema({{"V", 1}});
  schema.out = Schema({{"O", 1}});
  schema.msg = Schema({{"ping", 1}});
  schema.mem = Schema({{"sent", 1}, {"tmp", 1}});
  ModelOptions model = ModelOptions::PolicyAware();
  DatalogTransducer t = DatalogTransducer::FromTextOrDie(
      schema, model,
      /*qout=*/"O(y) :- tmp(x), MyAdom(x), V(y). .output O",
      /*qins=*/"sent(x) :- V(x). tmp(x) :- ping(x). .output sent, tmp",
      /*qdel=*/"tmp(x) :- MyAdom(x), !V(x), !ping(x). .output tmp",
      /*qsnd=*/"ping(x) :- V(x), !sent(x). .output ping", "ping-forget");

  Network nodes{V(900), V(901), V(902)};
  ModThreePolicy policy(nodes);
  Instance input;
  for (uint64_t v = 1; v <= 6; ++v) input.Insert(Fact("V", {V(v)}));
  // Every node holds two values and is pinged by the others, so every node
  // outputs its own values.
  Instance expected;
  for (uint64_t v = 1; v <= 6; ++v) expected.Insert(Fact("O", {V(v)}));
  size_t crashes = 0;
  ExpectCachedSystemFactsMatch(t, input, expected, policy, nodes, model,
                               &crashes);

  // The deletions took effect: a quiescent run leaves no tmp facts.
  TransducerNetwork network(nodes, &t, &policy, model);
  ASSERT_TRUE(network.Initialize(input).ok());
  ASSERT_TRUE(RunToQuiescence(network).ok());
  for (Value n : nodes) {
    EXPECT_TRUE(network.state(n).TuplesOf(InternName("tmp")).empty());
    EXPECT_EQ(network.state(n).TuplesOf(InternName("O")).size(), 2u);
  }
}

// ---------------------------------------------------------------------------
// Whole-run pins. The expected values were recorded from the from-scratch
// transition bookkeeping; every transition, message and scheduler choice
// must stay the same.
// ---------------------------------------------------------------------------

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t ChoicesDigest(const std::vector<net::Scheduler::Choice>& choices) {
  std::string text;
  for (const net::Scheduler::Choice& c : choices) {
    text += std::to_string(c.node_index) + ":";
    for (size_t d : c.deliveries) text += std::to_string(d) + ",";
    text += ";";
  }
  return Fnv1a(text);
}

struct RunPin {
  const char* run;
  size_t transitions;
  size_t heartbeats;
  size_t messages_sent;
  size_t messages_delivered;
  size_t output_facts;
  size_t output_complete_at;
  size_t supersteps;
  size_t choices;
  uint64_t choices_digest;
  uint64_t output_digest;
};

std::string PinToString(const RunPin& p) {
  return std::string("{\"") + p.run + "\", " + std::to_string(p.transitions) +
         ", " + std::to_string(p.heartbeats) + ", " +
         std::to_string(p.messages_sent) + ", " +
         std::to_string(p.messages_delivered) + ", " +
         std::to_string(p.output_facts) + ", " +
         std::to_string(p.output_complete_at) + ", " +
         std::to_string(p.supersteps) + ", " + std::to_string(p.choices) +
         ", " + std::to_string(p.choices_digest) + "ull, " +
         std::to_string(p.output_digest) + "ull},";
}

// The pins of one strategy, one per mode (kModes order). Every transition
// runs through a MemoCheckingTransducer; `check_served` is for
// domain-request.
void ExpectPinned(const Transducer& transducer,
                  const DistributionPolicy& policy, ModelOptions model,
                  const Instance& input, const Instance& expected,
                  const std::vector<RunPin>& pins, bool check_served = false) {
  ASSERT_EQ(pins.size(), 4u);
  Network nodes{V(900), V(901), V(902)};
  for (size_t m = 0; m < 4; ++m) {
    MemoCheckingTransducer checking(&transducer, check_served);
    TransducerNetwork network(nodes, &checking, &policy, model);
    ASSERT_TRUE(network.Initialize(input).ok());
    ModeRun run = RunInMode(network, kModes[m], /*seed=*/5);
    ASSERT_TRUE(run.result.ok()) << run.result.status();
    const RunResult& r = *run.result;
    EXPECT_TRUE(r.quiesced);
    EXPECT_EQ(r.output, expected);
    EXPECT_EQ(checking.checks(), r.stats.transitions);
    EXPECT_EQ(checking.memo_steps(), r.stats.transitions);
    const std::string name = transducer.name() + "/" + kModeNames[m];
    RunPin got{pins[m].run,
               r.stats.transitions,
               r.stats.heartbeats,
               r.stats.messages_sent,
               r.stats.messages_delivered,
               r.stats.output_facts,
               r.stats.output_complete_at,
               r.supersteps,
               r.choices.size(),
               ChoicesDigest(r.choices),
               Fnv1a(r.output.ToString())};
    EXPECT_EQ(PinToString(got), PinToString(pins[m])) << name;
  }
}

TEST(WholeRunPinTest, Broadcast) {
  auto tc = queries::MakeTransitiveClosure();
  auto transducer = MakeBroadcastTransducer(tc.get());
  const Instance graph = Graph();
  Network nodes{V(900), V(901), V(902)};
  HashPolicy policy(nodes);
  ExpectPinned(*transducer, policy, ModelOptions::Original(), graph,
               tc->Eval(graph).value(),
               {
                   {"rr", 8, 4, 48, 48, 104, 3, 0, 8, 9045658679184724278ull,
                    8610229925761448947ull},
                   {"random", 28, 14, 48, 48, 104, 9, 0, 28,
                    10121303173477162281ull, 8610229925761448947ull},
                   {"fault", 25, 9, 81, 81, 104, 7, 0, 25,
                    16913960981600982446ull, 8610229925761448947ull},
                   {"bsp", 9, 6, 48, 48, 104, 4, 3, 9, 5171213713730660961ull,
                    8610229925761448947ull},
               });
}

TEST(WholeRunPinTest, Absence) {
  auto q = MakeVMinusS();
  auto transducer = MakeAbsenceTransducer(q.get());
  const Instance input = SourcesAndTargets(Graph());
  Network nodes{V(900), V(901), V(902)};
  HashPolicy policy(nodes);
  ExpectPinned(*transducer, policy, ModelOptions::PolicyAware(), input,
               q->Eval(input).value(),
               {
                   {"rr", 9, 4, 82, 82, 4, 4, 0, 9, 9765873380418807540ull,
                    12704331290862156694ull},
                   {"random", 23, 6, 82, 82, 4, 17, 0, 23,
                    7076435900986966026ull, 12704331290862156694ull},
                   {"fault", 18, 5, 109, 109, 4, 11, 0, 18,
                    5980608172852056915ull, 12704331290862156694ull},
                   {"bsp", 12, 6, 82, 82, 4, 7, 4, 12, 13254070707305155107ull,
                    12704331290862156694ull},
               });
}

TEST(WholeRunPinTest, DomainRequest) {
  auto qtc = queries::MakeComplementTransitiveClosure();
  auto transducer = MakeDomainRequestTransducer(qtc.get());
  const Instance graph = Graph();
  Network nodes{V(900), V(901), V(902)};
  HashDomainGuidedPolicy policy(nodes);
  ExpectPinned(*transducer, policy, ModelOptions::PolicyAware(), graph,
               qtc->Eval(graph).value(),
               {
                   {"rr", 14, 4, 520, 520, 152, 8, 0, 14,
                    16351549898106027475ull, 12276790757250408181ull},
                   {"random", 53, 12, 520, 520, 152, 37, 0, 53,
                    12605949367317197985ull, 12276790757250408181ull},
                   {"fault", 31, 4, 680, 680, 152, 23, 0, 31,
                    15436628627799694536ull, 12276790757250408181ull},
                   {"bsp", 21, 6, 520, 520, 152, 14, 7, 21,
                    14108020232816004965ull, 12276790757250408181ull},
               },
               /*check_served=*/true);
}

// Win-move over the same graph's edges as Move facts. The protocol's
// messages do not depend on the query, so the runs match Q_TC's; only the
// output differs.
TEST(WholeRunPinTest, DomainRequestWinMove) {
  auto wm = queries::MakeWinMove();
  auto transducer = MakeDomainRequestTransducer(wm.get());
  Instance moves;
  Graph().ForEachFact(
      [&](uint32_t, const Tuple& t) { moves.Insert(Fact("Move", t)); });
  Network nodes{V(900), V(901), V(902)};
  HashDomainGuidedPolicy policy(nodes);
  ExpectPinned(*transducer, policy, ModelOptions::PolicyAware(), moves,
               wm->Eval(moves).value(),
               {
                   {"rr", 14, 4, 520, 520, 6, 8, 0, 14,
                    16351549898106027475ull, 3082414199068549854ull},
                   {"random", 53, 12, 520, 520, 6, 37, 0, 53,
                    12605949367317197985ull, 3082414199068549854ull},
                   {"fault", 31, 4, 680, 680, 6, 23, 0, 31,
                    15436628627799694536ull, 3082414199068549854ull},
                   {"bsp", 21, 6, 520, 520, 6, 14, 7, 21,
                    14108020232816004965ull, 3082414199068549854ull},
               },
               /*check_served=*/true);
}

// ---------------------------------------------------------------------------
// The policy contract behind the per-value system-fact build: under a
// domain-guided policy, P(R(a1..ak)) is the union of the alpha(ai).
// ---------------------------------------------------------------------------

std::set<Value> UnionOfValueOwners(const DistributionPolicy& policy,
                                   const Fact& fact) {
  std::set<Value> out;
  for (Value v : fact.args) {
    for (Value n : policy.NodesForValue(v)) out.insert(n);
  }
  return out;
}

TEST(PolicyContractTest, DomainGuidedPoliciesOwnFactsThroughTheirValues) {
  Network nodes{V(900), V(901), V(902), V(903)};
  HashDomainGuidedPolicy hash(nodes, /*salt=*/7);
  AllToOnePolicy all_to_one(V(902));
  MapDomainGuidedPolicy map(
      nodes, {{V(1), {V(900)}}, {V(2), {V(901), V(903)}}, {V(5), {V(902)}}},
      /*fallback=*/V(903));
  std::mt19937_64 rng(23);
  for (const DistributionPolicy* policy :
       std::vector<const DistributionPolicy*>{&hash, &all_to_one, &map}) {
    SCOPED_TRACE(policy->name());
    EXPECT_TRUE(policy->is_domain_guided());
    for (int i = 0; i < 500; ++i) {
      Tuple t;
      const size_t arity = 1 + rng() % 3;
      for (size_t k = 0; k < arity; ++k) t.push_back(V(rng() % 8));
      const Fact fact(rng() % 2 == 0 ? "E" : "Move", t);
      EXPECT_EQ(policy->NodesFor(fact), UnionOfValueOwners(*policy, fact))
          << FactToString(fact);
    }
  }
}

TEST(PolicyContractTest, OverridePolicyIsNotDomainGuided) {
  Network nodes{V(900), V(901), V(902)};
  HashDomainGuidedPolicy base(nodes);
  OverridePolicy policy(&base, {{Fact("E", {V(1), V(2)}), {V(900)}}});
  EXPECT_FALSE(policy.is_domain_guided());
}

// A policy that claims to be domain-guided but breaks the contract: every
// value belongs to node 900, yet every fact goes to every node. The cached
// system facts follow alpha, SystemFactsFor asks NodesFor, so the checking
// wrapper must see them differ — the reference does not share the fast
// path.
class ContractBreakingPolicy : public DistributionPolicy {
 public:
  explicit ContractBreakingPolicy(Network nodes) : nodes_(std::move(nodes)) {}
  std::set<Value> NodesFor(const Fact&) const override {
    return {nodes_.begin(), nodes_.end()};
  }
  bool is_domain_guided() const override { return true; }
  std::set<Value> NodesForValue(Value) const override { return {nodes_[0]}; }
  std::string name() const override { return "contract-breaking"; }

 private:
  Network nodes_;
};

TEST(CachedSystemFactsTest, ReferenceDoesNotShareThePerValueBuild) {
  auto qtc = queries::MakeComplementTransitiveClosure();
  auto transducer = MakeDomainRequestTransducer(qtc.get());
  Network nodes{V(900), V(901), V(902)};
  ContractBreakingPolicy policy(nodes);
  CheckingTransducer checking(transducer.get());
  TransducerNetwork network(nodes, &checking, &policy,
                            ModelOptions::PolicyAware());
  checking.set_network(&network);
  ASSERT_TRUE(network.Initialize(Graph()).ok());
  Status status = network.Heartbeat(V(901));
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
  EXPECT_NE(status.message().find("saw system facts"), std::string::npos)
      << status;
}

}  // namespace
}  // namespace calm::transducer
