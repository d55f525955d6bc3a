// Pins the compile-once pipeline to the one-shot entry points: for every
// semantics (stratified, ILOG invention, fixed-negation Gamma,
// well-founded) a PreparedProgram evaluated many times must return exactly
// what the corresponding single-call API returns, with identical EvalStats.

#include "datalog/prepared.h"

#include <gtest/gtest.h>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "datalog/wellfounded.h"
#include "workload/graph_gen.h"

namespace calm::datalog {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

bool StatsEqual(const EvalStats& a, const EvalStats& b) {
  return a.derived_facts == b.derived_facts &&
         a.fixpoint_rounds == b.fixpoint_rounds &&
         a.rule_applications == b.rule_applications;
}

TEST(PreparedProgramTest, MatchesOneShotStratified) {
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
      "O(x, y) :- Adom(x), Adom(y), !T(x, y). .output O");
  Result<PreparedProgram> prepared = PreparedProgram::Prepare(p);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  for (uint64_t seed = 0; seed < 6; ++seed) {
    Instance in = workload::RandomGraph(8, 0.25, seed);
    EvalStats one_shot_stats;
    Result<Instance> one_shot = Evaluate(p, in, {}, &one_shot_stats);
    ASSERT_TRUE(one_shot.ok()) << one_shot.status();

    EvalStats prepared_stats;
    Result<Instance> out = prepared->Eval(in, &prepared_stats);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(*out, *one_shot) << "seed " << seed;
    EXPECT_TRUE(StatsEqual(prepared_stats, one_shot_stats)) << "seed " << seed;
  }
}

TEST(PreparedProgramTest, MatchesOneShotIlogInvention) {
  Program p = ParseOrDie("N(*, x) :- S(x). O(v, x) :- N(v, x). .output O");
  Result<PreparedProgram> prepared =
      PreparedProgram::Prepare(p, {}, /*allow_invention=*/true);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  Instance in{Fact("S", {V(1)}), Fact("S", {V(2)})};
  EvalStats one_shot_stats;
  size_t one_shot_invented = 0;
  Result<Instance> one_shot =
      EvaluateIlog(p, in, {}, &one_shot_stats, &one_shot_invented);
  ASSERT_TRUE(one_shot.ok()) << one_shot.status();

  EvalStats prepared_stats;
  size_t invented = 0;
  Result<Instance> out = prepared->Eval(in, &prepared_stats, &invented);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, *one_shot);
  EXPECT_EQ(invented, one_shot_invented);
  EXPECT_TRUE(StatsEqual(prepared_stats, one_shot_stats));
}

TEST(PreparedProgramTest, MatchesOneShotFixedNegation) {
  Program p = ParseOrDie("Win(x) :- Move(x, y), !Win(y).");
  Result<PreparedProgram> prepared = PreparedProgram::PrepareFixedNegation(p);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  Instance in{Fact("Move", {V(1), V(2)}), Fact("Move", {V(2), V(3)})};
  Instance neg{Fact("Win", {V(2)})};
  EvalStats one_shot_stats;
  Result<Instance> one_shot =
      EvaluateWithFixedNegation(p, in, neg, {}, &one_shot_stats);
  ASSERT_TRUE(one_shot.ok()) << one_shot.status();

  EvalStats prepared_stats;
  Result<Instance> out = prepared->EvalFixedNegation(in, neg, &prepared_stats);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, *one_shot);
  EXPECT_TRUE(StatsEqual(prepared_stats, one_shot_stats));
}

TEST(PreparedProgramTest, MatchesOneShotWellFounded) {
  Program p = ParseOrDie("Win(x) :- Move(x, y), !Win(y).");
  Result<PreparedProgram> prepared = PreparedProgram::PrepareFixedNegation(p);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  for (uint64_t seed = 0; seed < 4; ++seed) {
    Instance graph = workload::RandomGraph(7, 0.3, seed);
    Instance in;
    for (const Tuple& t : graph.TuplesOf(InternName("E"))) {
      in.Insert(Fact("Move", t));
    }
    Result<WellFoundedModel> one_shot = EvaluateWellFounded(p, in);
    ASSERT_TRUE(one_shot.ok()) << one_shot.status();
    Result<WellFoundedModel> reused = EvaluateWellFounded(*prepared, {&in});
    ASSERT_TRUE(reused.ok()) << reused.status();
    EXPECT_EQ(reused->definitely, one_shot->definitely) << "seed " << seed;
    EXPECT_EQ(reused->possibly, one_shot->possibly) << "seed " << seed;
  }
}

TEST(PreparedProgramTest, RepeatedEvalIsStable) {
  // The thread-local scratch must not leak state between runs — neither
  // across different inputs nor across repeated runs on one input.
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T");
  Result<PreparedProgram> prepared = PreparedProgram::Prepare(p);
  ASSERT_TRUE(prepared.ok());

  Instance big = workload::RandomGraph(9, 0.4, /*seed=*/1);
  Instance small = workload::Path(3);
  Instance big_expected = *prepared->Eval(big);
  Instance small_expected = *prepared->Eval(small);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(*prepared->Eval(big), big_expected) << "round " << round;
    // A smaller input right after a bigger one must not see stale facts.
    EXPECT_EQ(*prepared->Eval(small), small_expected) << "round " << round;
    EXPECT_TRUE(prepared->Eval(Instance{})->empty()) << "round " << round;
  }
}

TEST(PreparedProgramTest, EvalPartsEqualsEvalOnUnion) {
  Program p = ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T");
  Result<PreparedProgram> prepared = PreparedProgram::Prepare(p);
  ASSERT_TRUE(prepared.ok());

  Instance a = workload::RandomGraph(6, 0.3, /*seed=*/11);
  Instance b = workload::RandomGraph(6, 0.3, /*seed=*/12);
  Result<Instance> parts = prepared->EvalParts({&a, &b}, nullptr);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(*parts, *prepared->Eval(Instance::Union(a, b)));
}

TEST(DatalogQueryTest, EvalUnionEqualsEvalOfUnion) {
  DatalogQuery q = DatalogQuery::FromTextOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T", "tc");
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Instance a = workload::RandomGraph(6, 0.3, seed);
    Instance b = workload::RandomGraph(6, 0.3, seed + 100);
    Result<Instance> direct = q.EvalUnion(a, b);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*direct, *q.Eval(Instance::Union(a, b))) << "seed " << seed;
  }
}

}  // namespace
}  // namespace calm::datalog
