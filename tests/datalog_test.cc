#include <gtest/gtest.h>

#include "datalog/analysis.h"
#include "datalog/ast.h"
#include "datalog/evaluator.h"
#include "datalog/fragment.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "datalog/stratifier.h"
#include "datalog/wellfounded.h"
#include "workload/graph_gen.h"

namespace calm::datalog {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParserTest, ParsesSimpleRule) {
  Result<Program> p = Parse("T(x, y) :- E(x, y).");
  ASSERT_TRUE(p.ok()) << p.status();
  ASSERT_EQ(p->rules.size(), 1u);
  const Rule& r = p->rules[0];
  EXPECT_EQ(NameOf(r.head.relation), "T");
  ASSERT_EQ(r.pos.size(), 1u);
  EXPECT_EQ(NameOf(r.pos[0].relation), "E");
  EXPECT_TRUE(r.neg.empty());
}

TEST(ParserTest, ParsesNegationAndInequality) {
  Result<Program> p = Parse("O(x, y) :- E(x, y), !S(y), x != y.");
  ASSERT_TRUE(p.ok()) << p.status();
  const Rule& r = p->rules[0];
  EXPECT_EQ(r.pos.size(), 1u);
  EXPECT_EQ(r.neg.size(), 1u);
  EXPECT_EQ(r.ineqs.size(), 1u);
  // "O" head becomes the default output.
  EXPECT_EQ(p->output_relations.size(), 1u);
}

TEST(ParserTest, ParsesConstantsAndComments) {
  Result<Program> p = Parse(
      "% a comment\n"
      "O(x) :- E(x, 3), R(x, \"a\").  // trailing\n");
  ASSERT_TRUE(p.ok()) << p.status();
  const Rule& r = p->rules[0];
  EXPECT_EQ(r.pos[0].args[1].constant, V(3));
  EXPECT_EQ(r.pos[1].args[1].constant, Sym("a"));
}

TEST(ParserTest, OutputDirective) {
  Result<Program> p = Parse(
      ".output T, U\n"
      "T(x) :- A(x).\n"
      "U(x) :- B(x).\n");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->output_relations.size(), 2u);
}

TEST(ParserTest, InventionAtomInHead) {
  Result<Program> p = Parse("R(*, x) :- E(x, y).");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_TRUE(p->rules[0].head.invents);
  EXPECT_EQ(p->rules[0].head.args.size(), 1u);
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(Parse("T(x :- E(x).").ok());
  EXPECT_FALSE(Parse("T(x) :- E(x)").ok());  // missing dot
  EXPECT_FALSE(Parse("T(x) :- E(x), *(y).").ok());
  EXPECT_FALSE(Parse("@").ok());
}

TEST(ParserTest, RoundTripsThroughPrinter) {
  Program p = ParseOrDie("O(x, y) :- E(x, y), !S(y), x != y.");
  Program q = ParseOrDie(ProgramToString(p));
  EXPECT_EQ(RuleToString(p.rules[0]), RuleToString(q.rules[0]));
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

TEST(AnalysisTest, SchemasAndIdbEdb) {
  Program p = ParseOrDie("T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).");
  Result<ProgramInfo> info = Analyze(p);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_TRUE(info->idb.ContainsName("T"));
  EXPECT_TRUE(info->edb.ContainsName("E"));
  EXPECT_EQ(info->sch.size(), 2u);
}

TEST(AnalysisTest, RejectsUnsafeRules) {
  // Head variable not in a positive atom.
  EXPECT_FALSE(Analyze(ParseOrDie("T(x, z) :- E(x, y).")).ok());
  // Negated variable not in a positive atom.
  EXPECT_FALSE(Analyze(ParseOrDie("T(x) :- E(x, x), !S(z).")).ok());
  // Inequality variable not in a positive atom.
  EXPECT_FALSE(Analyze(ParseOrDie("T(x) :- E(x, x), x != z.")).ok());
}

TEST(AnalysisTest, RejectsArityConflicts) {
  EXPECT_FALSE(Analyze(ParseOrDie("T(x) :- E(x, x). T(x, y) :- E(x, y).")).ok());
}

TEST(AnalysisTest, RejectsArityAbove32) {
  // Join plans address an atom's columns with 32-bit masks.
  auto rule = [](size_t arity) {
    std::string vars;
    for (size_t i = 0; i < arity; ++i) {
      vars += (i > 0 ? ", x" : "x") + std::to_string(i);
    }
    return "O(x0) :- E(" + vars + ").";
  };
  Result<DatalogQuery> wide = DatalogQuery::Create(ParseOrDie(rule(33)), "");
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wide.status().message().find("at most 32"), std::string::npos)
      << wide.status();
  EXPECT_TRUE(DatalogQuery::Create(ParseOrDie(rule(32)), "").ok());
}

TEST(AnalysisTest, RejectsInventionWithoutOptIn) {
  Program p = ParseOrDie("R(*, x) :- E(x, y).");
  EXPECT_FALSE(Analyze(p).ok());
  EXPECT_TRUE(Analyze(p, /*allow_invention=*/true).ok());
}

TEST(AnalysisTest, DetectsAdomUse) {
  Program p = ParseOrDie("O(x) :- Adom(x), !S(x).");
  Result<ProgramInfo> info = Analyze(p);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->uses_adom);
}

// ---------------------------------------------------------------------------
// Stratification
// ---------------------------------------------------------------------------

TEST(StratifierTest, PositiveProgramOneStratum) {
  Program p = ParseOrDie("T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).");
  ProgramInfo info = Analyze(p).value();
  Result<Stratification> s = Stratify(p, info);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->stratum_count, 1u);
}

TEST(StratifierTest, NegationForcesNewStratum) {
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
      "O(x, y) :- Adom(x), Adom(y), !T(x, y).");
  ProgramInfo info = Analyze(p).value();
  Result<Stratification> s = Stratify(p, info);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->stratum_count, 2u);
  EXPECT_LT(s->stratum_of[InternName("T")], s->stratum_of[InternName("O")]);
}

TEST(StratifierTest, WinMoveIsNotStratifiable) {
  Program p = ParseOrDie("Win(x) :- Move(x, y), !Win(y).");
  ProgramInfo info = Analyze(p).value();
  EXPECT_FALSE(Stratify(p, info).ok());
  EXPECT_FALSE(IsStratifiable(p, info));
}

TEST(StratifierTest, MutualPositiveRecursionIsFine) {
  Program p = ParseOrDie("A(x) :- B(x). B(x) :- A(x). A(x) :- S(x).");
  ProgramInfo info = Analyze(p).value();
  EXPECT_TRUE(IsStratifiable(p, info));
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

Instance EvalOrDie(const Program& p, const Instance& in,
                   EvalOptions opts = {}) {
  Result<Instance> r = Evaluate(p, in, opts);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r.value() : Instance{};
}

TEST(EvaluatorTest, TransitiveClosureOnPath) {
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T");
  Instance out = EvalOrDie(p, workload::Path(4));  // 0->1->2->3
  int pairs = 0;
  for (const Tuple& t : out.TuplesOf(InternName("T"))) {
    (void)t;
    ++pairs;
  }
  EXPECT_EQ(pairs, 6);  // (0,1)(0,2)(0,3)(1,2)(1,3)(2,3)
}

TEST(EvaluatorTest, NaiveAndSemiNaiveAgree) {
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T");
  Instance in = workload::RandomGraph(12, 0.2, /*seed=*/7);
  EvalOptions naive;
  naive.semi_naive = false;
  EXPECT_EQ(EvalOrDie(p, in), EvalOrDie(p, in, naive));
}

TEST(EvaluatorTest, StratifiedNegationComplementOfTC) {
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
      "O(x, y) :- Adom(x), Adom(y), !T(x, y). .output O");
  // Path 0->1: pairs without a path: (0,0),(1,0),(1,1).
  Instance out = EvalOrDie(p, workload::Path(2));
  const TupleSet& o = out.TuplesOf(InternName("O"));
  EXPECT_EQ(o.size(), 3u);
  EXPECT_TRUE(o.count({V(1), V(0)}) > 0);
  EXPECT_FALSE(o.count({V(0), V(1)}) > 0);
}

TEST(EvaluatorTest, InequalitiesFilter) {
  Program p = ParseOrDie("O(x, y) :- E(x, y), x != y. .output O");
  Instance in{Fact("E", {V(1), V(1)}), Fact("E", {V(1), V(2)})};
  Instance out = EvalOrDie(p, in);
  EXPECT_EQ(out.TuplesOf(InternName("O")).size(), 1u);
}

TEST(EvaluatorTest, ConstantsInRules) {
  Program p = ParseOrDie("O(x) :- E(x, 2). .output O");
  Instance in{Fact("E", {V(1), V(2)}), Fact("E", {V(3), V(4)})};
  Instance out = EvalOrDie(p, in);
  EXPECT_EQ(out.TuplesOf(InternName("O")).size(), 1u);
  EXPECT_TRUE(out.Contains(Fact("O", {V(1)})));
}

TEST(EvaluatorTest, RepeatedVariablesInAtom) {
  Program p = ParseOrDie("O(x) :- E(x, x). .output O");
  Instance in{Fact("E", {V(1), V(1)}), Fact("E", {V(1), V(2)})};
  Instance out = EvalOrDie(p, in);
  EXPECT_EQ(out.TuplesOf(InternName("O")).size(), 1u);
}

TEST(EvaluatorTest, EmptyInputGivesEmptyOutput) {
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T");
  EXPECT_TRUE(EvalOrDie(p, Instance{}).empty());
}

TEST(EvaluatorTest, TriangleJoinWithInequalities) {
  // Example 5.1's first rule.
  Program p = ParseOrDie(
      "T(x) :- E(x, y), E(y, z), E(z, x), y != x, y != z, x != z. .output T");
  Instance out = EvalOrDie(p, workload::Cycle(3));
  EXPECT_EQ(out.TuplesOf(InternName("T")).size(), 3u);
  // A path has no triangle; note Evaluate returns input + derived facts.
  EXPECT_TRUE(EvalOrDie(p, workload::Path(3)).TuplesOf(InternName("T")).empty());
}

TEST(EvaluatorTest, StatsReported) {
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T");
  EvalStats stats;
  Result<Instance> r = Evaluate(p, workload::Path(5), {}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.derived_facts, 0u);
  EXPECT_GT(stats.fixpoint_rounds, 1u);
}

TEST(EvaluatorTest, StatsNaiveVsSemiNaiveOnPath) {
  // TC on the path 0->1->2->3->4. Both modes derive the same 10 T facts and
  // need the same 5 delta rounds (longest derivation is length 4, plus the
  // empty round that detects the fixpoint); naive re-finds every valuation
  // each round, so its rule_applications count is strictly larger.
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T");

  EvalStats semi;
  ASSERT_TRUE(Evaluate(p, workload::Path(5), {}, &semi).ok());
  EvalOptions naive_opts;
  naive_opts.semi_naive = false;
  EvalStats naive;
  ASSERT_TRUE(Evaluate(p, workload::Path(5), naive_opts, &naive).ok());

  EXPECT_EQ(semi.fixpoint_rounds, 5u);
  EXPECT_EQ(naive.fixpoint_rounds, 5u);
  EXPECT_EQ(semi.derived_facts, 10u);
  EXPECT_EQ(naive.derived_facts, 10u);
  EXPECT_EQ(semi.rule_applications, 10u);  // each T fact found exactly once
  EXPECT_LT(semi.rule_applications, naive.rule_applications);
}

TEST(EvaluatorTest, ResourceLimitEnforced) {
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), T(y, z). .output T");
  EvalOptions opts;
  opts.max_total_facts = 10;
  Result<Instance> r = Evaluate(p, workload::Clique(6), opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvaluatorTest, UnstratifiableRejected) {
  Program p = ParseOrDie("Win(x) :- Move(x, y), !Win(y).");
  EXPECT_FALSE(Evaluate(p, Instance{}).ok());
}

// ---------------------------------------------------------------------------
// Fragments (Section 5.1)
// ---------------------------------------------------------------------------

FragmentInfo Classify(std::string_view text) {
  Program p = ParseOrDie(text);
  ProgramInfo info = Analyze(p).value();
  return ClassifyFragment(p, info);
}

TEST(FragmentTest, PositiveDatalog) {
  FragmentInfo f = Classify("T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).");
  EXPECT_TRUE(f.positive);
  EXPECT_FALSE(f.uses_inequalities);
  EXPECT_EQ(f.FragmentName(), "Datalog");
}

TEST(FragmentTest, DatalogWithInequality) {
  FragmentInfo f = Classify("T(x, y) :- E(x, y), x != y.");
  EXPECT_EQ(f.FragmentName(), "Datalog(!=)");
}

TEST(FragmentTest, SemiPositive) {
  FragmentInfo f = Classify("T(x) :- V(x), !S(x).");
  EXPECT_TRUE(f.semi_positive);
  EXPECT_FALSE(f.positive);
  EXPECT_EQ(f.FragmentName(), "SP-Datalog");
}

TEST(FragmentTest, ConnectedRuleDetection) {
  // Connected: x-y share E, y-z share E.
  EXPECT_TRUE(IsConnectedRule(ParseOrDie("T(x, z) :- E(x, y), E(y, z).").rules[0]));
  // Disconnected: {x,y} and {u,v} never co-occur.
  EXPECT_FALSE(
      IsConnectedRule(ParseOrDie("T(x, u) :- E(x, y), E(u, v).").rules[0]));
  // Single-variable rules are connected.
  EXPECT_TRUE(IsConnectedRule(ParseOrDie("T(x) :- S(x).").rules[0]));
}

TEST(FragmentTest, Example51P1IsConDatalog) {
  // Paper Example 5.1, program P1.
  FragmentInfo f = Classify(
      "T(x) :- E(x, y), E(y, z), E(z, x), y != x, y != z, x != z.\n"
      "O(x) :- Adom(x), !T(x).");
  EXPECT_TRUE(f.connected_stratified);
  EXPECT_TRUE(f.semi_connected);
  EXPECT_FALSE(f.semi_positive);
  EXPECT_EQ(f.FragmentName(), "con-Datalog~");
}

TEST(FragmentTest, Example51P2IsNotSemiConnected) {
  // Paper Example 5.1, program P2: the D rule is disconnected and D is
  // negated above it, so no stratification puts it in the last stratum.
  FragmentInfo f = Classify(
      "T(x, y, z) :- E(x, y), E(y, z), E(z, x), y != x, y != z, x != z.\n"
      "D(x1) :- T(x1, x2, x3), T(y1, y2, y3), x1 != y1, x1 != y2, x1 != y3, "
      "x2 != y1, x2 != y2, x2 != y3, x3 != y1, x3 != y2, x3 != y3.\n"
      "O(x) :- Adom(x), !D(x).");
  EXPECT_TRUE(f.stratifiable);
  EXPECT_FALSE(f.all_rules_connected);
  EXPECT_FALSE(f.semi_connected);
  EXPECT_EQ(f.FragmentName(), "Datalog~");
}

TEST(FragmentTest, DisconnectedLastStratumIsSemiConnected) {
  // The disconnected rule's head O is on top: semicon but not con, and the
  // negation is over the idb relation W, so not SP-Datalog either.
  FragmentInfo f = Classify(
      "T(x) :- E(x, y).\n"
      "W(x) :- E(x, x).\n"
      "O(x, u) :- T(x), T(u), !W(x).");
  EXPECT_FALSE(f.all_rules_connected);
  EXPECT_FALSE(f.semi_positive);
  EXPECT_TRUE(f.semi_connected);
  EXPECT_EQ(f.FragmentName(), "semicon-Datalog~");
}

TEST(FragmentTest, SPDatalogWithDisconnectedRuleIsSemiConnected) {
  // SP-Datalog ⊆ semicon-Datalog¬ (Section 5.1, inclusion (i)).
  FragmentInfo f = Classify("O(x, u) :- V(x), V(u), !S(x).");
  EXPECT_TRUE(f.semi_positive);
  EXPECT_TRUE(f.semi_connected);
}

// ---------------------------------------------------------------------------
// Well-founded semantics
// ---------------------------------------------------------------------------

TEST(WellFoundedTest, WinMoveChain) {
  // Game 0 -> 1 -> 2: position 2 is lost (no moves), 1 is won, 0 is lost.
  Program p = ParseOrDie("Win(x) :- Move(x, y), !Win(y).");
  Instance in{Fact("Move", {V(0), V(1)}), Fact("Move", {V(1), V(2)})};
  Result<WellFoundedModel> m = EvaluateWellFounded(p, in);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(m->definitely.Contains(Fact("Win", {V(1)})));
  EXPECT_FALSE(m->possibly.Contains(Fact("Win", {V(0)})));
  EXPECT_FALSE(m->possibly.Contains(Fact("Win", {V(2)})));
  EXPECT_TRUE(m->Undefined().empty());
}

TEST(WellFoundedTest, WinMoveCycleIsUndefined) {
  // A 2-cycle: both positions are drawn (undefined).
  Program p = ParseOrDie("Win(x) :- Move(x, y), !Win(y).");
  Instance in{Fact("Move", {V(0), V(1)}), Fact("Move", {V(1), V(0)})};
  Result<WellFoundedModel> m = EvaluateWellFounded(p, in);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->definitely.Contains(Fact("Win", {V(0)})));
  EXPECT_TRUE(m->possibly.Contains(Fact("Win", {V(0)})));
  EXPECT_EQ(m->Undefined().size(), 2u);
}

TEST(WellFoundedTest, AgreesWithStratifiedSemantics) {
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
      "O(x, y) :- Adom(x), Adom(y), !T(x, y). .output O");
  Instance in = workload::RandomGraph(6, 0.3, /*seed=*/3);
  Instance stratified = Evaluate(p, in).value();
  WellFoundedModel wf = EvaluateWellFounded(p, in).value();
  EXPECT_EQ(stratified, wf.definitely);
  EXPECT_EQ(wf.Undefined().size(), 0u);
}

TEST(WellFoundedTest, DoubledProgramMatchesAlternatingFixpoint) {
  Program p = ParseOrDie("Win(x) :- Move(x, y), !Win(y).");
  ProgramInfo info = Analyze(p).value();
  Instance in{Fact("Move", {V(0), V(1)}), Fact("Move", {V(1), V(2)}),
              Fact("Move", {V(3), V(3)})};
  WellFoundedModel wf = EvaluateWellFounded(p, in).value();

  const size_t steps = 4;
  DoubledProgram doubled = BuildDoubledProgram(p, info, steps);
  ProgramInfo dinfo = Analyze(doubled.program).value();
  ASSERT_TRUE(IsStratifiable(doubled.program, dinfo));
  Instance out = Evaluate(doubled.program, in).value();

  uint32_t lo = InternName(DoubledProgram::LoName("Win", steps));
  uint32_t hi = InternName(DoubledProgram::HiName("Win", steps));
  for (const Tuple& t : wf.definitely.TuplesOf(InternName("Win"))) {
    EXPECT_TRUE(out.TuplesOf(lo).count(t) > 0);
  }
  EXPECT_EQ(out.TuplesOf(lo).size(),
            wf.definitely.TuplesOf(InternName("Win")).size());
  EXPECT_EQ(out.TuplesOf(hi).size(),
            wf.possibly.TuplesOf(InternName("Win")).size());
}

// ---------------------------------------------------------------------------
// DatalogQuery wrapper
// ---------------------------------------------------------------------------

TEST(DatalogQueryTest, ComputesQueryInterface) {
  DatalogQuery q = DatalogQuery::FromTextOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T", "tc");
  EXPECT_TRUE(q.input_schema().ContainsName("E"));
  EXPECT_TRUE(q.output_schema().ContainsName("T"));
  Result<Instance> out = q.Eval(workload::Path(3));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
}

TEST(DatalogQueryTest, AdomNotPartOfInputSchema) {
  DatalogQuery q = DatalogQuery::FromTextOrDie(
      "O(x) :- Adom(x), !S(x). .output O", "co-s");
  EXPECT_FALSE(q.input_schema().ContainsName("Adom"));
  EXPECT_TRUE(q.input_schema().ContainsName("S"));
  // Adom has no values if input only has S... adom({S(1)}) = {1}: O empty.
  Instance in{Fact("S", {V(1)})};
  EXPECT_TRUE(q.Eval(in)->empty());
  // With V(2) present in another relation? S is the only relation: use two
  // facts.
  Instance in2{Fact("S", {V(1)}), Fact("S", {V(2)})};
  in2.Erase(Fact("S", {V(2)}));
  EXPECT_TRUE(q.Eval(in2)->empty());
}

TEST(DatalogQueryTest, WellFoundedSemanticsQuery) {
  DatalogQuery q = DatalogQuery::FromTextOrDie(
      "Win(x) :- Move(x, y), !Win(y). .output Win", "win-move",
      DatalogQuery::Semantics::kWellFounded);
  Instance in{Fact("Move", {V(0), V(1)}), Fact("Move", {V(1), V(2)})};
  Result<Instance> out = q.Eval(in);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);
  EXPECT_TRUE(out->Contains(Fact("Win", {V(1)})));
}

TEST(DatalogQueryTest, GenericityHolds) {
  DatalogQuery q = DatalogQuery::FromTextOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T", "tc");
  Instance in = workload::Cycle(4);
  std::map<Value, Value> pi{{V(0), V(3)}, {V(3), V(0)}};
  EXPECT_TRUE(CheckGenericity(q, in, pi).ok());
}

}  // namespace
}  // namespace calm::datalog
