#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/enumerator.h"
#include "base/json.h"
#include "base/metrics.h"
#include "base/trace.h"
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

// --- Full sweeps walk their plans ------------------------------------------

// The one-pass ladder with the symmetry reduction off, as plain nested
// loops: every I of AllInstances in order; at each I the still-open cells
// are covered by streams as the sweep covers them (the widest open class at
// its largest open bound, serving the open cells up to that bound, then
// what is left), and each stream is every index subset of its class's
// candidates (ForEachIndexSubset, no permutations), built as an Instance
// and checked by CheckPair once for all open served cells holding it. A
// cell closes on its first event; a stream ends when its served cells have
// all closed. `pairs` counts the checks.
struct NestedLoopLadder {
  std::vector<Result<std::optional<Counterexample>>> cells;  // ladder order
  uint64_t pairs = 0;
};

NestedLoopLadder RunNestedLoopLadder(const Query& q, size_t max_i,
                                     const ExhaustiveOptions& o) {
  const Schema& schema = q.input_schema();
  const std::vector<Value> fresh = IntDomain(o.fresh_values, 1000);
  const size_t n = 3 * max_i;
  auto cls_of = [](size_t c) { return static_cast<int>(c % 3); };
  auto bound_of = [](size_t c) { return c / 3 + 1; };
  NestedLoopLadder ref;
  ref.cells.assign(n, std::optional<Counterexample>());
  std::vector<bool> open(n, true);
  for (const Instance& i :
       AllInstances(schema, IntDomain(o.domain_size), o.max_facts_i)) {
    std::vector<bool> unserved = open;
    while (std::find(unserved.begin(), unserved.end(), true) !=
           unserved.end()) {
      size_t head = n;
      for (size_t c = 0; c < n; ++c) {
        if (unserved[c] && (head == n || cls_of(c) < cls_of(head) ||
                            (cls_of(c) == cls_of(head) &&
                             bound_of(c) > bound_of(head)))) {
          head = c;
        }
      }
      std::vector<bool> served(n, false);
      for (size_t c = 0; c < n; ++c) {
        served[c] = unserved[c] && bound_of(c) <= bound_of(head);
        if (served[c]) unserved[c] = false;
      }
      const std::vector<Fact> candidates = CandidateJFacts(
          schema, i, fresh, static_cast<MonotonicityClass>(cls_of(head)));
      const std::vector<MonotonicityClass> kinds =
          CandidateKinds(candidates, i.ActiveDomain());
      ForEachIndexSubset(
          candidates.size(), bound_of(head), {},
          [&](std::span<const uint32_t> subset) {
            Instance j;
            int kind = 2;
            for (uint32_t c : subset) {
              j.Insert(candidates[c]);
              kind = std::min(kind, static_cast<int>(kinds[c]));
            }
            std::vector<size_t> hit;
            for (size_t c = 0; c < n; ++c) {
              if (served[c] && open[c] && cls_of(c) <= kind &&
                  subset.size() <= bound_of(c)) {
                hit.push_back(c);
              }
            }
            if (hit.empty()) return true;
            ++ref.pairs;
            Result<std::optional<Counterexample>> r = CheckPair(q, i, j);
            if (r.ok() && !r->has_value()) return true;
            for (size_t c : hit) {
              ref.cells[c] = r;
              open[c] = false;
            }
            for (size_t c = 0; c < n; ++c) {
              if (served[c] && open[c]) return true;
            }
            return false;
          });
    }
  }
  return ref;
}

uint64_t CounterTotal(const char* name) {
  uint64_t total = 0;
  for (const char* cls : {"M", "Mdistinct", "Mdisjoint"}) {
    total += MetricRegistry::Global().GetCounter(name, {{"class", cls}}).Value();
  }
  return total;
}

// Symmetry-off ladders at the survey's bounds walk cached plans (no sweep
// streams) and equal the nested loops in verdicts, witnesses and, at one
// thread, pairs checked — or fail with the first erroring cell's error.
// Over {E/2, F/1}: a stratified program, a well-founded one, a Datalog(!=)
// one, and the stratified one under a fact cap that fails some unions. A
// reduced ladder over the same bounds runs first, so a full sweep handed
// the reduced plan would check fewer pairs.
TEST(LadderPlanTest, FullLaddersMatchNestedLoops) {
  const bool metrics_were_on = MetricsEnabled();
  SetMetricsEnabled(true);
  const workload::ClassifyOptions survey;
  ExhaustiveOptions o;
  o.domain_size = survey.domain_size;
  o.max_facts_i = survey.max_facts_i;
  o.fresh_values = survey.fresh_values;
  const std::string stratified =
      "P(x) :- E(x, y), !F(y).\n"
      "O(x, y) :- E(x, y), F(x), !P(y).\n.output O\n";
  datalog::EvalOptions capped;
  capped.max_total_facts = 7;
  struct Program {
    std::string text;
    datalog::DatalogQuery::Semantics semantics;
    datalog::EvalOptions options;
  };
  const Program programs[] = {
      {stratified, datalog::DatalogQuery::Semantics::kStratified, {}},
      {"W(x) :- E(x, y), F(y), !W(y).\nO(x) :- F(x), !W(x).\n.output O\n",
       datalog::DatalogQuery::Semantics::kWellFounded, {}},
      {"O(x, z) :- E(x, y), E(y, z), F(y), x != z.\n.output O\n",
       datalog::DatalogQuery::Semantics::kStratified, {}},
      {stratified, datalog::DatalogQuery::Semantics::kStratified, capped},
  };
  const size_t max_i = survey.max_i;
  size_t violations = 0, errors = 0;
  for (const Program& p : programs) {
    Result<datalog::Program> parsed = datalog::Parse(p.text);
    ASSERT_TRUE(parsed.ok()) << p.text;
    Result<datalog::DatalogQuery> q = datalog::DatalogQuery::Create(
        *parsed, "plan", p.semantics, p.options);
    ASSERT_TRUE(q.ok()) << p.text;
    ASSERT_EQ(q->input_schema().ToString(), Schema({{"E", 2}, {"F", 1}}).ToString());
    o.symmetry = SymmetryMode::kForceOn;
    o.threads = 1;
    (void)ComputeLadder(*q, max_i, o);

    o.symmetry = SymmetryMode::kOff;
    const NestedLoopLadder ref = RunNestedLoopLadder(*q, max_i, o);
    const Status* first_error = nullptr;
    for (const auto& cell : ref.cells) {
      if (!cell.ok() && first_error == nullptr) first_error = &cell.status();
      violations += cell.ok() && cell->has_value();
    }
    errors += first_error != nullptr;
    for (size_t threads : {1u, 4u}) {
      o.threads = threads;
      const std::string where =
          p.text + " cap " + std::to_string(p.options.max_total_facts) +
          " threads " + std::to_string(threads);
      Counter& streamed =
          MetricRegistry::Global().GetCounter("calm.checker.streamed_sweeps");
      const uint64_t streamed0 = streamed.Value();
      const uint64_t pairs0 = CounterTotal("calm.checker.pairs_checked");
      Result<Ladder> ladder = ComputeLadder(*q, max_i, o);
      const uint64_t pairs = CounterTotal("calm.checker.pairs_checked") - pairs0;
      EXPECT_EQ(streamed.Value(), streamed0) << where;
      if (threads == 1) {
        EXPECT_EQ(pairs, ref.pairs) << where;
      }
      if (first_error != nullptr) {
        ASSERT_FALSE(ladder.ok()) << where;
        EXPECT_EQ(ladder.status().ToString(), first_error->ToString())
            << where;
        continue;
      }
      ASSERT_TRUE(ladder.ok()) << where << ": " << ladder.status();
      for (size_t r = 0; r < max_i; ++r) {
        const LadderRow& row = ladder->rows[r];
        const std::optional<Counterexample>* got[] = {
            &row.m_witness, &row.distinct_witness, &row.disjoint_witness};
        for (size_t k = 0; k < 3; ++k) {
          const std::optional<Counterexample>& want = *ref.cells[3 * r + k];
          const std::string cell = where + " row " + std::to_string(r + 1) +
                                   " class " + std::to_string(k);
          ASSERT_EQ(got[k]->has_value(), want.has_value()) << cell;
          if (!want.has_value()) continue;
          EXPECT_TRUE((*got[k])->i == want->i && (*got[k])->j == want->j &&
                      (*got[k])->retracted == want->retracted)
              << cell << ": " << (*got[k])->ToString() << " vs "
              << want->ToString();
        }
      }
    }
  }
  SetMetricsEnabled(metrics_were_on);
  EXPECT_GT(violations, 0u);
  EXPECT_EQ(errors, 1u) << "only the capped program should fail";
}

// --- Streamed sweeps --------------------------------------------------------

// The ladder's table, then each row's three witnesses ("none" for none).
std::string LadderText(const Ladder& ladder) {
  std::string text = ladder.ToString();
  for (const LadderRow& row : ladder.rows) {
    for (const auto* w :
         {&row.m_witness, &row.distinct_witness, &row.disjoint_witness}) {
      text += w->has_value() ? (*w)->ToString() : std::string("none");
      text += "\n";
    }
  }
  return text;
}

// At deep_sweep's bounds (domain 4, |I| <= 4, |J| <= 3, 2 fresh values)
// every ladder's widest stream is over kMaxPlanPairs, so its sweep streams:
// the span says planned=0 and each I's J's come from ForEachIndexSubset at
// visit time. Three specimens pin their ladder text, rows and witnesses, at
// 1 and 4 threads, and their pairs checked at 1 thread: Q_TC, whose cells
// stop early; TC (native), which sweeps every pair; and dup2, over two
// binary relations, whose I's over four values have 72 M candidates (two
// mask words). dup2's M cells close at its second I, so a two-word stream
// runs only when another thread reaches such an I first; canonical_test's
// BitSetDfsMatchesReferenceAcrossWordBoundaries covers that DFS.
TEST(LadderStreamTest, DeepLaddersMatchPinnedText) {
  struct Specimen {
    std::unique_ptr<Query> query;
    int64_t pairs;
    std::string text;
  };
  const std::string table = "  i  M^i  M^i_distinct  M^i_disjoint\n";
  std::vector<Specimen> specimens;
  const std::string qtc_i = "I = {E(0, 0), E(0, 1)}, J = {";
  const std::string qtc_o = "}, retracted output fact: O(1, 0)\n";
  specimens.push_back(
      {Own(queries::ComplementTcProgram()), 2285,
       table + "  1  no   yes           yes\n"
               "  2  no   no            yes\n"
               "  3  no   no            yes\n" +
           qtc_i + "E(1, 0)" + qtc_o + "none\nnone\n" +
           qtc_i + "E(0, 1000), E(1, 0)" + qtc_o +
           qtc_i + "E(1, 1000), E(1000, 0)" + qtc_o + "none\n" +
           qtc_i + "E(0, 1000), E(0, 1001), E(1, 0)" + qtc_o +
           qtc_i + "E(0, 1000), E(1, 1000), E(1000, 0)" + qtc_o + "none\n"});
  std::string all_none;
  for (int k = 0; k < 9; ++k) all_none += "none\n";
  specimens.push_back({queries::MakeTransitiveClosure(), 237290,
                       table + "  1  yes  yes           yes\n"
                               "  2  yes  yes           yes\n"
                               "  3  yes  yes           yes\n" +
                           all_none});
  const std::string dup_i = "I = {R1(0, 0)}, J = {";
  const std::string dup_o = "}, retracted output fact: O(0, 0)\n";
  specimens.push_back(
      {Own(queries::DuplicateProgram(2)), 33958,
       table + "  1  no   yes           yes\n"
               "  2  no   no            no \n"
               "  3  no   no            no \n" +
           dup_i + "R2(0, 0)" + dup_o + "none\nnone\n" +
           dup_i + "R1(0, 1000), R2(0, 0)" + dup_o +
           dup_i + "R1(0, 1000), R2(0, 1000)" + dup_o +
           dup_i + "R1(1000, 1000), R2(1000, 1000)" + dup_o +
           dup_i + "R1(0, 1000), R1(0, 1001), R2(0, 0)" + dup_o +
           dup_i + "R1(0, 1000), R1(0, 1001), R2(0, 1000)" + dup_o +
           dup_i + "R1(1000, 1000), R1(1000, 1001), R2(1000, 1000)" + dup_o});
  for (const Specimen& s : specimens) {
    for (size_t threads : {1u, 4u}) {
      const std::string where =
          s.query->name() + " threads " + std::to_string(threads);
      ExhaustiveOptions o;
      o.domain_size = 4;
      o.max_facts_i = 4;
      o.fresh_values = 2;
      o.threads = threads;
      Trace::Reset();
      Trace::SetEnabled(true);
      Result<Ladder> ladder = ComputeLadder(*s.query, 3, o);
      Trace::SetEnabled(false);
      ASSERT_TRUE(ladder.ok()) << where << ": " << ladder.status();
      EXPECT_EQ(LadderText(*ladder), s.text) << where;
      ASSERT_EQ(Trace::SpanCount("checker.find_violation"), 1u) << where;
      const Json exported = Trace::ExportJson();
      for (const Json& e : exported.Find("traceEvents")->items()) {
        if (e.GetString("name").value() != "checker.find_violation") continue;
        const Json* args = e.Find("args");
        EXPECT_EQ(args->GetInt("planned").value(), 0) << where;
        if (threads == 1) {
          EXPECT_EQ(args->GetInt("pairs").value(), s.pairs) << where;
        }
      }
    }
  }
  Trace::Reset();
}

}  // namespace
}  // namespace calm::monotonicity
