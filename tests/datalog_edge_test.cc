// Edge cases and hardening for the Datalog engine: parser corner cases,
// unusual-but-legal rules, stratifier shapes, Adom seeding, and the
// adversarial-delay scheduler on transducer networks.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "queries/graph_queries.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/strategies.h"
#include "workload/graph_gen.h"

namespace calm::datalog {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

Instance EvalOrDie(const Program& p, const Instance& in) {
  Result<Instance> r = Evaluate(p, in);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r.value() : Instance{};
}

// ---------------------------------------------------------------------------
// Parser corner cases
// ---------------------------------------------------------------------------

TEST(ParserEdgeTest, WhitespaceAndCommentsEverywhere) {
  Result<Program> p = Parse(
      "  %% leading comment\n"
      "\tT( x ,y ):-E(x,\n y).   // trailing\n"
      "%\n");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->rules.size(), 1u);
}

TEST(ParserEdgeTest, ArrowVariants) {
  EXPECT_TRUE(Parse("T(x) <- E(x, x).").ok());
  EXPECT_TRUE(Parse("T(x) :- E(x, x).").ok());
}

TEST(ParserEdgeTest, NotKeywordNegation) {
  Result<Program> p = Parse("T(x) :- E(x, x), not S(x).");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->rules[0].neg.size(), 1u);
}

TEST(ParserEdgeTest, EmptyProgramIsValidText) {
  Result<Program> p = Parse("% nothing here\n");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->empty());
}

TEST(ParserEdgeTest, ConstantOnlyIneq) {
  // 1 != 2 is always true; 1 != 1 never. Both are syntactically legal.
  Program p = ParseOrDie("O(x) :- S(x), 1 != 2. .output O");
  Instance out = EvalOrDie(p, Instance{Fact("S", {V(5)})});
  EXPECT_TRUE(out.Contains(Fact("O", {V(5)})));
  Program q = ParseOrDie("O(x) :- S(x), 1 != 1. .output O");
  EXPECT_TRUE(EvalOrDie(q, Instance{Fact("S", {V(5)})})
                  .TuplesOf(InternName("O"))
                  .empty());
}

TEST(ParserEdgeTest, UnterminatedStringRejected) {
  EXPECT_FALSE(Parse("O(x) :- S(x, \"oops).").ok());
}

TEST(ParserEdgeTest, LineNumbersInErrors) {
  Result<Program> p = Parse("T(x) :- E(x, x).\n\n@@@");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("line 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Evaluator corner cases
// ---------------------------------------------------------------------------

TEST(EvaluatorEdgeTest, ConstantHead) {
  // A head with only constants: derived once any body match exists.
  Program p = ParseOrDie("O(7, 8) :- E(x, y). .output O");
  Instance out = EvalOrDie(p, workload::Path(2));
  EXPECT_TRUE(out.Contains(Fact("O", {V(7), V(8)})));
  EXPECT_TRUE(EvalOrDie(p, Instance{}).TuplesOf(InternName("O")).empty());
}

TEST(EvaluatorEdgeTest, DuplicateRulesAreHarmless) {
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, y) :- E(x, y). .output T");
  EXPECT_EQ(EvalOrDie(p, workload::Path(3)).TuplesOf(InternName("T")).size(),
            2u);
}

TEST(EvaluatorEdgeTest, SymbolConstantsJoinWithData) {
  Program p = ParseOrDie("O(x) :- Color(x, \"red\"). .output O");
  Instance in{Fact("Color", {V(1), Sym("red")}),
              Fact("Color", {V(2), Sym("blue")})};
  Instance out = EvalOrDie(p, in);
  EXPECT_EQ(out.TuplesOf(InternName("O")).size(), 1u);
  EXPECT_TRUE(out.Contains(Fact("O", {V(1)})));
}

TEST(EvaluatorEdgeTest, IdbFactsInInputSeedTheRelation) {
  // Facts over an idb relation supplied in the input act as seeds (edb
  // part of the idb relation) — standard Datalog behavior.
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T");
  Instance in = workload::Path(2);
  in.Insert(Fact("T", {V(50), V(0)}));  // seed: reaches the path
  Instance out = EvalOrDie(p, in);
  EXPECT_TRUE(out.Contains(Fact("T", {V(50), V(1)})));
}

TEST(EvaluatorEdgeTest, AdomSeededOnlyFromRealEdb) {
  Program p = ParseOrDie("O(x) :- Adom(x). .output O");
  Instance in{Fact("E", {V(1), V(2)})};
  // E is not part of sch(P) here (the program never mentions it), so Adom
  // stays empty: the program's input schema is just {Adom}, pruned.
  Instance out = EvalOrDie(p, in);
  EXPECT_TRUE(out.TuplesOf(InternName("O")).empty());
  // When the program also reads E, Adom covers E's values.
  Program q = ParseOrDie("U(x, y) :- E(x, y). O(x) :- Adom(x). .output O");
  Instance out2 = EvalOrDie(q, in);
  EXPECT_EQ(out2.TuplesOf(InternName("O")).size(), 2u);
}

TEST(EvaluatorEdgeTest, DeepStrataChain) {
  // A 5-stratum alternation of complements.
  Program p = ParseOrDie(
      "A(x) :- Adom(x), !Z(x).\n"
      "B(x) :- Adom(x), !A(x).\n"
      "C(x) :- Adom(x), !B(x).\n"
      "D(x) :- Adom(x), !C(x).\n"
      "O(x) :- Adom(x), !D(x).\n"
      "Z(x) :- S(x).\n"
      ".output O");
  // Values: S = {1}; Z={1}; A={2}; B={1}; C={2}; D={1}; O={2}.
  Instance in{Fact("S", {V(1)}), Fact("S2", {V(2)})};
  // S2 unused by the program; add 2 via another S fact instead.
  Instance input{Fact("S", {V(1)}), Fact("S", {V(2)})};
  // With S={1,2}: Z={1,2}, A={}, B={1,2}, C={}, D={1,2}, O={}.
  EXPECT_TRUE(EvalOrDie(p, input).TuplesOf(InternName("O")).empty());
  (void)in;
}

TEST(EvaluatorEdgeTest, LargeArityRelations) {
  Program p = ParseOrDie(
      "O(a, b, c, d, e) :- R(a, b, c, d, e), a != e. .output O");
  Instance in{Fact("R", {V(1), V(2), V(3), V(4), V(5)}),
              Fact("R", {V(1), V(2), V(3), V(4), V(1)})};
  EXPECT_EQ(EvalOrDie(p, in).TuplesOf(InternName("O")).size(), 1u);
}

// A long body whose partial matches multiply — 40 atoms sharing x, each
// binding a fresh y — must come back as ResourceExhausted, not exhaust
// memory: the bytecode executor counts each op's frame level against
// max_total_facts.
TEST(EvaluatorEdgeTest, LongBodyFrameLevelsAreBounded) {
  std::string text = "O(x) :- ";
  for (int k = 0; k < 40; ++k) {
    if (k > 0) text += ", ";
    text += "E(x, y" + std::to_string(k) + ")";
  }
  text += ".";
  Result<Program> p = Parse(text);
  ASSERT_TRUE(p.ok()) << p.status();
  Instance in;
  for (uint64_t y = 0; y < 3; ++y) in.Insert(Fact("E", {V(0), V(y)}));
  EvalOptions options;
  options.max_total_facts = 1'000'000;
  Result<Instance> r = Evaluate(*p, in, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted) << r.status();
  // The same body over a graph too small to blow up still evaluates.
  Instance small;
  small.Insert(Fact("E", {V(0), V(1)}));
  Result<Instance> ok = Evaluate(*p, small, options);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok->Contains(Fact("O", {V(0)})));
}

TEST(EvaluatorEdgeTest, SelfJoinSameRelationThreeTimes) {
  Program p = ParseOrDie(
      "O(x, w) :- E(x, y), E(y, z), E(z, w). .output O");
  Instance out = EvalOrDie(p, workload::Cycle(4));
  EXPECT_EQ(out.TuplesOf(InternName("O")).size(), 4u);  // 3-hops on a 4-cycle
}

// ---------------------------------------------------------------------------
// Adversarial-delay schedule on transducer networks
// ---------------------------------------------------------------------------

TEST(AdversarialScheduleTest, StrategiesSurviveMaximalDelays) {
  auto win = queries::MakeWinMove();
  auto t = transducer::MakeDomainRequestTransducer(win.get());
  Instance graph = workload::RandomGraph(5, 0.35, 4);
  Instance game;
  for (const Tuple& tu : graph.TuplesOf(InternName("E"))) {
    game.Insert(Fact("Move", tu));
  }
  Instance expected = win->Eval(game).value();

  transducer::Network nodes{V(900), V(901), V(902)};
  transducer::HashDomainGuidedPolicy policy(nodes);
  transducer::TransducerNetwork network(
      nodes, t.get(), &policy, transducer::ModelOptions::PolicyAware());
  ASSERT_TRUE(network.Initialize(game).ok());
  transducer::RunOptions ro;
  ro.scheduler = transducer::RunOptions::SchedulerKind::kAdversarialDelay;
  ro.max_delay = 24;
  Result<transducer::RunResult> r = transducer::RunToQuiescence(network, ro);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->quiesced);
  EXPECT_EQ(r->output, expected);
}

TEST(AdversarialScheduleTest, DelaysStretchTheRun) {
  auto tc = queries::MakeTransitiveClosure();
  auto t = transducer::MakeBroadcastTransducer(tc.get());
  transducer::Network nodes{V(900), V(901)};
  transducer::HashPolicy policy(nodes);
  Instance input = workload::Path(5);

  size_t transitions[2] = {0, 0};
  for (int adversarial = 0; adversarial < 2; ++adversarial) {
    transducer::TransducerNetwork network(
        nodes, t.get(), &policy, transducer::ModelOptions::Original());
    ASSERT_TRUE(network.Initialize(input).ok());
    transducer::RunOptions ro;
    ro.scheduler =
        adversarial
            ? transducer::RunOptions::SchedulerKind::kAdversarialDelay
            : transducer::RunOptions::SchedulerKind::kRoundRobin;
    ro.max_delay = 20;
    Result<transducer::RunResult> r =
        transducer::RunToQuiescence(network, ro);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->quiesced);
    EXPECT_EQ(r->output, tc->Eval(input).value());
    transitions[adversarial] = r->stats.transitions;
  }
  EXPECT_GT(transitions[1], transitions[0]);
}

}  // namespace
}  // namespace calm::datalog
