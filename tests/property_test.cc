// Parameterized property suites: invariants that must hold across the whole
// query corpus and seed sweeps, exercised via TEST_P / value-parameterized
// gtest.

#include <gtest/gtest.h>

#include <memory>

#include "base/components.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/wellfounded.h"
#include "monotonicity/checker.h"
#include "queries/graph_queries.h"
#include "queries/paper_programs.h"
#include "reference_eval.h"
#include "workload/graph_gen.h"
#include "workload/instance_gen.h"

namespace calm {
namespace {

// ---------------------------------------------------------------------------
// Property 1: genericity. Every query in the corpus commutes with random
// permutations of dom on random inputs.
// ---------------------------------------------------------------------------

struct QueryFactory {
  const char* label;
  std::unique_ptr<Query> (*make)();
};

std::unique_ptr<Query> MakeClique3() { return queries::MakeCliqueQuery(3); }
std::unique_ptr<Query> MakeStar2() { return queries::MakeStarQuery(2); }
std::unique_ptr<Query> MakeQtcDatalog() {
  return std::make_unique<datalog::DatalogQuery>(
      queries::ComplementTcProgram());
}
std::unique_ptr<Query> MakeP1() {
  return std::make_unique<datalog::DatalogQuery>(queries::Example51P1());
}
std::unique_ptr<Query> MakeP2() {
  return std::make_unique<datalog::DatalogQuery>(queries::Example51P2());
}

const QueryFactory kGraphCorpus[] = {
    {"tc", queries::MakeTransitiveClosure},
    {"qtc", queries::MakeComplementTransitiveClosure},
    {"clique3", MakeClique3},
    {"star2", MakeStar2},
    {"two_hop", queries::MakeTwoHopJoin},
    {"triangles", queries::MakeTrianglesUnlessTwoDisjoint},
    {"qtc_datalog", MakeQtcDatalog},
    {"p1", MakeP1},
    {"p2", MakeP2},
};

class GenericityProperty
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(GenericityProperty, CommutesWithPermutations) {
  auto [query_index, seed] = GetParam();
  std::unique_ptr<Query> q = kGraphCorpus[query_index].make();
  Instance in = workload::RandomGraph(6, 0.3, seed);
  std::map<Value, Value> pi = workload::RandomPermutation(in, seed + 101);
  Status s = CheckGenericity(*q, in, pi);
  EXPECT_TRUE(s.ok()) << kGraphCorpus[query_index].label << ": "
                      << s.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GenericityProperty,
    ::testing::Combine(::testing::Range<size_t>(0, 9),
                       ::testing::Values(1, 2, 3, 4)),
    [](const auto& info) {
      return std::string(kGraphCorpus[std::get<0>(info.param)].label) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Property 2: checker verdict monotonicity. Because every domain-disjoint J
// is domain-distinct and every domain-distinct J is an arbitrary J, a
// counterexample found for a *weaker* class is also one for the stronger
// class: in(M) => in(M^i), and in(M) => in(Mdistinct) => in(Mdisjoint).
// ---------------------------------------------------------------------------

class CheckerConsistencyProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(CheckerConsistencyProperty, VerdictsAreOrdered) {
  using monotonicity::ExhaustiveOptions;
  using monotonicity::FindViolation;
  using monotonicity::MonotonicityClass;
  std::unique_ptr<Query> q = kGraphCorpus[GetParam()].make();
  ExhaustiveOptions o;
  o.domain_size = 2;
  o.max_facts_i = 2;
  o.fresh_values = 2;
  o.max_facts_j = 2;
  auto in_m = FindViolation(*q, MonotonicityClass::kMonotone, o);
  auto in_dist = FindViolation(*q, MonotonicityClass::kDomainDistinct, o);
  auto in_disj = FindViolation(*q, MonotonicityClass::kDomainDisjoint, o);
  ASSERT_TRUE(in_m.ok() && in_dist.ok() && in_disj.ok());
  // no M violation => no Mdistinct violation => no Mdisjoint violation.
  if (!in_m->has_value()) {
    EXPECT_FALSE(in_dist->has_value());
  }
  if (!in_dist->has_value()) {
    EXPECT_FALSE(in_disj->has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CheckerConsistencyProperty,
                         ::testing::Range<size_t>(0, 9),
                         [](const auto& info) {
                           return std::string(kGraphCorpus[info.param].label);
                         });

// ---------------------------------------------------------------------------
// Property 3: the engine, the engine without join reordering, and the
// reference evaluator (tests/reference_eval.h) agree on a program corpus and
// seed sweep; the well-founded model of a stratifiable program is total and
// equals the stratified semantics.
// ---------------------------------------------------------------------------

struct ProgramCase {
  const char* label;
  const char* text;
};

const ProgramCase kProgramCorpus[] = {
    {"tc", "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T"},
    {"qtc",
     "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
     "O(x, y) :- Adom(x), Adom(y), !T(x, y). .output O"},
    {"same_gen",
     // Same-generation: a classic nonlinear recursion.
     "S(x, y) :- E(w, x), E(w, y).\n"
     "S(x, y) :- E(u, x), S(u, v), E(v, y). .output S"},
    {"p1",
     "T(x) :- E(x, y), E(y, z), E(z, x), y != x, y != z, x != z.\n"
     "O(x) :- Adom(x), !T(x). .output O"},
    {"three_strata",
     "A(x, y) :- E(x, y).\n"
     "B(x) :- A(x, y), !Loop(x).\n"
     "Loop(x) :- E(x, x).\n"
     "O(x) :- Adom(x), !B(x). .output O"},
    {"constants_and_repeats",
     "Self(x) :- E(x, x).\n"
     "O(x) :- E(x, y), !Self(y), x != y. .output O"},
};

class EvaluatorAgreementProperty
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(EvaluatorAgreementProperty, ReferenceUnorderedAndWfsAgree) {
  auto [prog_index, seed] = GetParam();
  datalog::Program p = datalog::ParseOrDie(kProgramCorpus[prog_index].text);
  Instance in = workload::RandomGraph(6, 0.35, seed);

  datalog::EvalOptions no_reorder;
  no_reorder.reorder_joins = false;
  Result<Instance> a = datalog::Evaluate(p, in);
  Result<Instance> b = datalog::reference::Eval(p, in);
  Result<Instance> c = datalog::Evaluate(p, in, no_reorder);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.value(), c.value());

  Result<datalog::WellFoundedModel> wf = datalog::EvaluateWellFounded(p, in);
  ASSERT_TRUE(wf.ok()) << wf.status();
  EXPECT_EQ(wf->definitely, a.value());
  EXPECT_TRUE(wf->Undefined().empty())
      << "stratifiable programs have total well-founded models";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, EvaluatorAgreementProperty,
    ::testing::Combine(::testing::Range<size_t>(0, 6),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(kProgramCorpus[std::get<0>(info.param)].label) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Property 4: components partition the instance and are pairwise domain
// disjoint, on random multi-part inputs.
// ---------------------------------------------------------------------------

class ComponentsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ComponentsProperty, PartitionAndDisjointness) {
  uint64_t seed = GetParam();
  Instance input;
  for (uint64_t part = 0; part < 3; ++part) {
    input.InsertAll(
        workload::RandomGraph(4, 0.4, seed * 7 + part, /*base=*/part * 100));
  }
  std::vector<Instance> comps = Components(input);
  Instance reunion;
  size_t total = 0;
  for (const Instance& c : comps) {
    EXPECT_FALSE(c.empty());
    total += c.size();
    reunion.InsertAll(c);
    // Minimality: each component is itself a single component.
    EXPECT_EQ(Components(c).size(), 1u);
  }
  EXPECT_EQ(total, input.size());
  EXPECT_EQ(reunion, input);
  for (size_t a = 0; a < comps.size(); ++a) {
    for (size_t b = a + 1; b < comps.size(); ++b) {
      EXPECT_TRUE(IsDomainDisjointFrom(comps[a], comps[b]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComponentsProperty,
                         ::testing::Range<uint64_t>(0, 8));

// ---------------------------------------------------------------------------
// Property 5: the con-Datalog¬ distribution law (Lemma 5.2) as a per-seed
// parameterized sweep: evaluating P1 componentwise equals evaluating whole.
// ---------------------------------------------------------------------------

class Lemma52Property : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Lemma52Property, ConProgramDistributes) {
  uint64_t seed = GetParam();
  datalog::DatalogQuery p1 = queries::Example51P1();
  Instance input;
  for (uint64_t part = 0; part < 3; ++part) {
    input.InsertAll(
        workload::RandomGraph(4, 0.5, seed * 13 + part, /*base=*/part * 100));
  }
  Instance whole = p1.Eval(input).value();
  Instance by_parts;
  for (const Instance& c : Components(input)) {
    by_parts.InsertAll(p1.Eval(c).value());
  }
  EXPECT_EQ(whole, by_parts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma52Property,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace calm
