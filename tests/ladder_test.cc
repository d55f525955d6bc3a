#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "datalog/ilog.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "monotonicity/ladder.h"
#include "queries/graph_queries.h"
#include "queries/paper_programs.h"
#include "workload/fuzzer.h"

namespace calm::monotonicity {
namespace {

ExhaustiveOptions SmallSpace() {
  ExhaustiveOptions o;
  o.domain_size = 3;
  o.max_facts_i = 3;
  o.fresh_values = 2;
  return o;
}

TEST(LadderTest, MonotoneQueryIsAllYes) {
  auto tc = queries::MakeTransitiveClosure();
  Result<Ladder> ladder = ComputeLadder(*tc, 3, SmallSpace());
  ASSERT_TRUE(ladder.ok());
  for (const LadderRow& row : ladder->rows) {
    EXPECT_TRUE(row.in_m && row.in_distinct && row.in_disjoint) << row.i;
  }
  EXPECT_EQ(ladder->FirstDistinctViolation(), 0u);
  EXPECT_EQ(ladder->FirstDisjointViolation(), 0u);
}

TEST(LadderTest, Clique3RungMatchesTheorem313) {
  // Q^3_clique = Q^{i+2} with i = 1: in M^1_distinct, out at M^2_distinct.
  auto q = queries::MakeCliqueQuery(3);
  ExhaustiveOptions o = SmallSpace();
  o.fresh_values = 1;
  Result<Ladder> ladder = ComputeLadder(*q, 3, o);
  ASSERT_TRUE(ladder.ok());
  EXPECT_EQ(ladder->FirstDistinctViolation(), 2u);
  EXPECT_TRUE(ladder->rows[0].in_distinct);
  EXPECT_FALSE(ladder->rows[1].in_distinct);
  // The witness at the violating rung is recorded.
  ASSERT_TRUE(ladder->rows[1].distinct_witness.has_value());
  EXPECT_FALSE(ladder->rows[1].distinct_witness->ToString().empty());
}

TEST(LadderTest, Star2RungMatchesTheorem314) {
  // Q^2_star = Q^{i+1} with i = 1: in M^1_disjoint, out at M^2_disjoint,
  // and out of M^1_distinct already.
  auto q = queries::MakeStarQuery(2);
  ExhaustiveOptions o = SmallSpace();
  o.fresh_values = 3;
  Result<Ladder> ladder = ComputeLadder(*q, 2, o);
  ASSERT_TRUE(ladder.ok());
  EXPECT_EQ(ladder->FirstDisjointViolation(), 2u);
  EXPECT_EQ(ladder->FirstDistinctViolation(), 1u);
}

TEST(LadderTest, RowsAreInternallyConsistent) {
  // in M^i implies in M^i_distinct implies in M^i_disjoint, per row.
  auto q = queries::MakeComplementTransitiveClosure();
  ExhaustiveOptions o = SmallSpace();
  o.domain_size = 2;
  o.max_facts_i = 2;
  Result<Ladder> ladder = ComputeLadder(*q, 3, o);
  ASSERT_TRUE(ladder.ok());
  for (const LadderRow& row : ladder->rows) {
    if (row.in_m) {
      EXPECT_TRUE(row.in_distinct);
    }
    if (row.in_distinct) {
      EXPECT_TRUE(row.in_disjoint);
    }
  }
}

TEST(LadderTest, ToStringRendersTable) {
  auto tc = queries::MakeTransitiveClosure();
  ExhaustiveOptions o = SmallSpace();
  o.domain_size = 2;
  o.max_facts_i = 2;
  Result<Ladder> ladder = ComputeLadder(*tc, 2, o);
  ASSERT_TRUE(ladder.ok());
  std::string table = ladder->ToString();
  EXPECT_NE(table.find("M^i_distinct"), std::string::npos);
  EXPECT_NE(table.find("yes"), std::string::npos);
}

// The one-pass ladder must resolve every cell exactly as that cell's own
// FindViolation sweep does — verdict, witness I, J and retracted fact — or
// fail with the first cell error in cell order, under both symmetry modes
// and any thread count.
void ExpectCellsMatchOwnSweeps(const Query& q, size_t max_i,
                               ExhaustiveOptions o, const std::string& label) {
  for (SymmetryMode mode : {SymmetryMode::kForceOn, SymmetryMode::kOff}) {
    o.symmetry = mode;
    o.threads = 1;
    std::vector<Result<std::optional<Counterexample>>> expected;
    const Status* first_error = nullptr;
    for (size_t i = 1; i <= max_i; ++i) {
      o.max_facts_j = i;
      for (MonotonicityClass cls : {MonotonicityClass::kMonotone,
                                    MonotonicityClass::kDomainDistinct,
                                    MonotonicityClass::kDomainDisjoint}) {
        expected.push_back(FindViolation(q, cls, o));
      }
    }
    for (const auto& e : expected) {
      if (!e.ok() && first_error == nullptr) first_error = &e.status();
    }
    for (size_t threads : {1u, 4u}) {
      o.threads = threads;
      const std::string where = label + " (" +
                                (mode == SymmetryMode::kOff ? "off" : "on") +
                                ", threads " + std::to_string(threads) + ")";
      Result<Ladder> ladder = ComputeLadder(q, max_i, o);
      if (first_error != nullptr) {
        ASSERT_FALSE(ladder.ok()) << where;
        EXPECT_EQ(ladder.status().ToString(), first_error->ToString())
            << where;
        continue;
      }
      ASSERT_TRUE(ladder.ok()) << where << ": " << ladder.status();
      ASSERT_EQ(ladder->rows.size(), max_i) << where;
      for (size_t r = 0; r < max_i; ++r) {
        const LadderRow& row = ladder->rows[r];
        const std::optional<Counterexample>* got[] = {
            &row.m_witness, &row.distinct_witness, &row.disjoint_witness};
        const bool in[] = {row.in_m, row.in_distinct, row.in_disjoint};
        for (size_t k = 0; k < 3; ++k) {
          const std::optional<Counterexample>& want = *expected[3 * r + k];
          const std::string cell = where + " row " + std::to_string(r + 1) +
                                   " class " + std::to_string(k);
          ASSERT_EQ(got[k]->has_value(), want.has_value()) << cell;
          EXPECT_EQ(in[k], !want.has_value()) << cell;
          if (!want.has_value()) continue;
          const Counterexample& g = **got[k];
          EXPECT_TRUE(g.i == want->i && g.j == want->j &&
                      g.retracted == want->retracted)
              << cell << ": " << g.ToString() << " vs " << want->ToString();
        }
      }
    }
  }
}

std::unique_ptr<Query> Own(datalog::DatalogQuery q) {
  return std::make_unique<datalog::DatalogQuery>(std::move(q));
}

TEST(LadderOnePassTest, SpecimenCellsMatchTheirOwnSweeps) {
  // The Theorem 3.1 / Example 5.1 specimens, as Datalog and natively.
  struct Specimen {
    std::unique_ptr<Query> query;
    size_t fresh;
  };
  std::vector<Specimen> specimens;
  specimens.push_back({Own(queries::TcProgram()), 2});
  specimens.push_back({Own(queries::ComplementTcProgram()), 2});
  specimens.push_back({Own(queries::CliqueProgram(3)), 2});
  specimens.push_back({Own(queries::StarProgram(2)), 3});
  specimens.push_back({Own(queries::DuplicateProgram(2)), 2});
  specimens.push_back({Own(queries::WinMoveProgram()), 2});
  specimens.push_back({Own(queries::Example51P1()), 2});
  specimens.push_back({queries::MakeTransitiveClosure(), 2});
  specimens.push_back({queries::MakeComplementTransitiveClosure(), 2});
  for (const Specimen& s : specimens) {
    ExhaustiveOptions o = SmallSpace();
    o.max_facts_i = 2;
    o.fresh_values = s.fresh;
    ExpectCellsMatchOwnSweeps(*s.query, 3, o, s.query->name());
  }
}

TEST(LadderOnePassTest, GeneratedProgramCellsMatchTheirOwnSweeps) {
  const workload::ClassifyOptions survey;  // the survey's bounds
  ExhaustiveOptions o;
  o.domain_size = survey.domain_size;
  o.max_facts_i = survey.max_facts_i;
  o.fresh_values = survey.fresh_values;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (size_t shape = 0; shape < workload::kProgramShapeCount; ++shape) {
      workload::FuzzerOptions knobs;
      knobs.seed = seed;
      knobs.shape = static_cast<workload::ProgramShape>(shape);
      workload::GeneratedProgram p = workload::GenerateProgram(knobs);
      Result<datalog::Program> parsed = datalog::Parse(p.text);
      ASSERT_TRUE(parsed.ok()) << p.text;
      Result<datalog::DatalogQuery> q =
          datalog::DatalogQuery::Create(*parsed, "generated", p.semantics);
      ASSERT_TRUE(q.ok()) << p.text;
      ExpectCellsMatchOwnSweeps(*q, survey.max_i, o, p.text);
    }
  }
}

TEST(LadderOnePassTest, NarrowCellsPastTheWidestOpenBound) {
  // A hand-made query (not generic, so compared under both modes but pinned
  // under kOff) whose ladder needs two streams per I: M^2 and M^3 close at
  // I = {E(0,0), E(1,2)} on the old-value J {E(1,1), E(2,2)}, M^1 never
  // closes, and rows 2 and 3 of Mdistinct and Mdisjoint close later, at
  // {E(0,0), E(2,1)}, on two fresh-value facts — past M^1's bound.
  auto e = [](uint64_t a, uint64_t b) {
    return Fact("E", {Value::FromInt(a), Value::FromInt(b)});
  };
  NativeQuery q(
      "two-streams", Schema({{"E", 2}}), Schema({{"O", 1}}),
      NativeQuery::EvalFn([e](const Instance& x) -> Result<Instance> {
        size_t fresh_facts = 0;
        x.ForEachFact([&](uint32_t, const Tuple& t) {
          bool fresh = false;
          for (Value v : t) fresh = fresh || v.payload() >= 1000;
          fresh_facts += fresh ? 1 : 0;
        });
        const bool bad = (x.Contains(e(1, 1)) && x.Contains(e(2, 2))) ||
                         (x.Contains(e(2, 1)) && fresh_facts >= 2);
        Instance out;
        if (x.Contains(e(0, 0)) && !bad) {
          out.Insert(Fact("O", {Value::FromInt(0)}));
        }
        return out;
      }));
  ExhaustiveOptions o = SmallSpace();
  o.max_facts_i = 2;
  ExpectCellsMatchOwnSweeps(q, 3, o, "two-streams");

  o.symmetry = SymmetryMode::kOff;
  Result<Ladder> ladder = ComputeLadder(q, 3, o);
  ASSERT_TRUE(ladder.ok()) << ladder.status();
  EXPECT_TRUE(ladder->rows[0].in_m && ladder->rows[0].in_distinct);
  ASSERT_TRUE(ladder->rows[1].m_witness.has_value());
  EXPECT_EQ(ladder->rows[1].m_witness->i, (Instance{e(0, 0), e(1, 2)}));
  ASSERT_TRUE(ladder->rows[1].distinct_witness.has_value());
  EXPECT_EQ(ladder->rows[1].distinct_witness->i, (Instance{e(0, 0), e(2, 1)}));
}

TEST(LadderOnePassTest, ErrorIsTheFirstErroringCells) {
  // N invents a fresh value per step, so any S fact diverges past the cap.
  datalog::EvalOptions capped;
  capped.max_total_facts = 500;
  datalog::IlogQuery q = datalog::IlogQuery::FromTextOrDie(
      ".output O\n"
      "N(*, x) :- S(x).\n"
      "N(*, k) :- N(k, x).\n"
      "O(x) :- S(x), N(k, z).\n",
      "diverging", capped);
  ExhaustiveOptions o = SmallSpace();
  o.domain_size = 2;
  o.max_facts_i = 2;
  ExpectCellsMatchOwnSweeps(q, 2, o, "diverging");
  Result<Ladder> ladder = ComputeLadder(q, 2, o);
  ASSERT_FALSE(ladder.ok());
  EXPECT_EQ(ladder.status().code(), StatusCode::kResourceExhausted);
}

TEST(LadderOnePassTest, RejectsMoreCellsThanAMaskHoldsAndCheckpoints) {
  auto tc = queries::MakeTransitiveClosure();
  ExhaustiveOptions o = SmallSpace();
  o.domain_size = 1;
  o.max_facts_i = 1;
  EXPECT_TRUE(ComputeLadder(*tc, 21, o).ok());
  EXPECT_EQ(ComputeLadder(*tc, 22, o).status().code(),
            StatusCode::kInvalidArgument);
  o.checkpoint_dir = ::testing::TempDir() + "ladder_checkpoint";
  EXPECT_EQ(ComputeLadder(*tc, 2, o).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace calm::monotonicity
