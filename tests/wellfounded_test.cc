// The code-space well-founded alternation (datalog/wellfounded.cc) against
// the reference evaluator's (tests/reference_eval.h, naive Gamma steps over
// Instances): equal definitely/possibly models on seeded random
// fixed-negation programs, the fuzzer's win-move shape and the
// bench_winmove game families; matching errors under a small
// max_total_facts; and the monotone alternation (lo only grows, hi only
// shrinks) that lets the production loop stop on equal sizes. Well-founded
// union checks, which probe the final lo, must match the generic overlay
// evaluator's first retracted fact. Run over world-masked databases, each
// world's lo and hi move monotonically too, which the batched alternation's
// stop test rests on.

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "base/instance.h"
#include "base/query.h"
#include "datalog/parser.h"
#include "datalog/prepared.h"
#include "datalog/program.h"
#include "datalog/wellfounded.h"
#include "reference_eval.h"
#include "workload/fuzzer.h"
#include "workload/graph_gen.h"
#include "workload/instance_gen.h"

namespace calm::datalog {
namespace {

size_t Rand(std::mt19937& rng, size_t bound) {
  return std::uniform_int_distribution<size_t>(0, bound - 1)(rng);
}

// Safe Datalog¬ with negation anywhere, recursion through negation
// included: E/F are edb, W/P/Q idb.
std::string RandomFixedNegationProgram(std::mt19937& rng) {
  struct Rel {
    const char* name;
    uint32_t arity;
  };
  constexpr Rel kRels[] = {{"E", 2}, {"F", 1}, {"W", 1}, {"P", 2}, {"Q", 1}};
  constexpr const char* kVars[] = {"x", "y", "z"};
  std::string text;
  for (size_t head = 2; head < 5; ++head) {
    for (size_t r = 0, n = 1 + Rand(rng, 2); r < n; ++r) {
      std::vector<std::string> bound;
      std::string body;
      for (size_t a = 0, m = 1 + Rand(rng, 2); a < m; ++a) {
        const Rel& rel = kRels[Rand(rng, 5)];
        body += std::string(body.empty() ? "" : ", ") + rel.name + "(";
        for (uint32_t i = 0; i < rel.arity; ++i) {
          std::string term = Rand(rng, 8) == 0 ? std::to_string(Rand(rng, 3))
                                               : kVars[Rand(rng, 3)];
          if (term[0] >= 'a') bound.push_back(term);
          body += (i > 0 ? ", " : "") + term;
        }
        body += ")";
      }
      auto term = [&] {
        return bound.empty() ? std::to_string(Rand(rng, 3))
                             : bound[Rand(rng, bound.size())];
      };
      for (size_t k = 0, m = Rand(rng, 3); k < m; ++k) {
        const Rel& rel = kRels[Rand(rng, 5)];
        body += std::string(", !") + rel.name + "(";
        for (uint32_t i = 0; i < rel.arity; ++i) {
          body += (i > 0 ? ", " : "") + term();
        }
        body += ")";
      }
      std::string rule = std::string(kRels[head].name) + "(";
      for (uint32_t i = 0; i < kRels[head].arity; ++i) {
        rule += (i > 0 ? ", " : "") + term();
      }
      text += rule + ") :- " + body + ".\n";
    }
  }
  return text;
}

// The edb relations of `prepared`, Adom aside: what random inputs range over.
Schema InputSchema(const PreparedProgram& prepared) {
  Schema schema;
  for (const RelationDecl& r : prepared.info().edb.relations()) {
    if (r.name != AdomRelation()) (void)schema.AddRelation(r);
  }
  return schema;
}

// Production and reference agree on `input` under `options`, errors
// included; an error both return counts into *errors. The reference has no
// join frames, so production's frame bound ("rule evaluation exceeded
// max_total_facts") is the one error it cannot reproduce; a run that hits
// it is not compared.
void ExpectModelsMatch(const Program& program, const EvalOptions& options,
                       const Instance& input, const std::string& label,
                       size_t* errors) {
  Result<PreparedProgram> prepared =
      PreparedProgram::PrepareFixedNegation(program, options);
  ASSERT_TRUE(prepared.ok()) << label;
  bool monotone = true;
  Result<reference::WellFoundedModel> want = reference::WellFounded(
      program, input, options.max_total_facts, nullptr, &monotone);
  Result<WellFoundedModel> got = EvaluateWellFounded(*prepared, {&input});
  const std::string ctx = label + "\ninput: " + input.ToString() +
                          "\nreference: " + want.status().ToString() +
                          "\ncode space: " + got.status().ToString();
  EXPECT_TRUE(monotone) << "lo shrank or hi grew: " << ctx;
  if (!got.ok() && got.status().message() ==
                       "rule evaluation exceeded max_total_facts") {
    return;
  }
  ASSERT_EQ(want.ok(), got.ok()) << ctx;
  if (!want.ok()) {
    EXPECT_EQ(want.status().ToString(), got.status().ToString()) << ctx;
    ++*errors;
    return;
  }
  EXPECT_EQ(want->definitely.ToString(), got->definitely.ToString()) << ctx;
  EXPECT_EQ(want->possibly.ToString(), got->possibly.ToString()) << ctx;
}

TEST(WellFoundedTest, RandomFixedNegationProgramsMatchReference) {
  size_t errors = 0, undefined = 0;
  for (unsigned seed = 0; seed < 60; ++seed) {
    std::mt19937 rng(11000 + seed);
    const std::string text = RandomFixedNegationProgram(rng);
    Result<Program> program = Parse(text);
    ASSERT_TRUE(program.ok()) << "generator bug: " << text;
    Result<PreparedProgram> prepared =
        PreparedProgram::PrepareFixedNegation(*program);
    ASSERT_TRUE(prepared.ok()) << text;
    for (uint64_t k = 0; k < 4; ++k) {
      const Instance input =
          workload::RandomInstance(InputSchema(*prepared), 2 + 2 * k, 4,
                                   seed * 16 + k);
      for (size_t cap : {size_t{0}, size_t{12}}) {
        EvalOptions options;
        if (cap > 0) options.max_total_facts = cap;
        ExpectModelsMatch(*program, options, input,
                          text + "cap " + std::to_string(cap), &errors);
      }
      Result<WellFoundedModel> m = EvaluateWellFounded(*prepared, {&input});
      if (m.ok() && !m->Undefined().empty()) ++undefined;
    }
  }
  EXPECT_GT(errors, 0u) << "the small cap never bit";
  EXPECT_GT(undefined, 0u) << "no program left a fact undefined";
}

TEST(WellFoundedTest, FuzzerWinMoveShapeMatchesReference) {
  size_t errors = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    workload::FuzzerOptions fo;
    fo.seed = seed;
    fo.shape = workload::ProgramShape::kWinMove;
    const workload::GeneratedProgram gen = workload::GenerateProgram(fo);
    Result<Program> program = Parse(gen.text);
    ASSERT_TRUE(program.ok()) << gen.text;
    Result<PreparedProgram> prepared =
        PreparedProgram::PrepareFixedNegation(*program);
    ASSERT_TRUE(prepared.ok()) << gen.text;
    const Instance input =
        workload::RandomInstance(InputSchema(*prepared), 6, 4, seed);
    for (size_t cap : {size_t{0}, size_t{10}}) {
      EvalOptions options;
      if (cap > 0) options.max_total_facts = cap;
      ExpectModelsMatch(*program, options, input,
                        gen.text + "cap " + std::to_string(cap), &errors);
    }
  }
  EXPECT_GT(errors, 0u);
}

Instance AsGame(const Instance& graph) {
  Instance out;
  for (const Tuple& t : graph.TuplesOf(InternName("E"))) {
    out.Insert(Fact("Move", t));
  }
  return out;
}

// The games bench_winmove plays.
TEST(WellFoundedTest, WinMoveGameFamiliesMatchReference) {
  Result<Program> win = Parse("Win(x) :- Move(x, y), !Win(y).");
  ASSERT_TRUE(win.ok());
  std::vector<Instance> games;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    games.push_back(AsGame(workload::RandomGraph(8, 0.3, seed)));
  }
  for (uint64_t seed = 0; seed < 8; ++seed) {
    games.push_back(AsGame(workload::RandomGraph(6, 0.35, seed)));
  }
  games.push_back(AsGame(workload::Path(6)));
  games.push_back(AsGame(workload::Cycle(4)));
  Instance mixed = AsGame(workload::Path(4));
  mixed.InsertAll(AsGame(workload::Cycle(3, 100)));
  games.push_back(mixed);
  size_t errors = 0;
  for (size_t g = 0; g < games.size(); ++g) {
    for (size_t cap : {size_t{0}, size_t{16}}) {
      EvalOptions options;
      if (cap > 0) options.max_total_facts = cap;
      ExpectModelsMatch(*win, options, games[g],
                        "game " + std::to_string(g) + " cap " +
                            std::to_string(cap),
                        &errors);
    }
  }
  EXPECT_GT(errors, 0u);
}

// Per-world fact counts of a masked database: weights[k] is the number of
// facts holding in world k (a fact's rows carry disjoint world sets).
std::vector<size_t> WorldWeights(const Database& db, size_t worlds) {
  std::vector<size_t> weights(worlds, 0);
  db.ForEachStore([&](uint32_t, const RelStore& store) {
    for (uint32_t row = 0; row < store.row_count(); ++row) {
      for (uint64_t m = store.RowMask(row); m != 0; m &= m - 1) {
        ++weights[std::countr_zero(m)];
      }
    }
  });
  return weights;
}

// World k of a masked database, as an Instance.
Instance WorldOf(const Database& db, size_t k) {
  Instance out;
  db.ForEachStore([&](uint32_t rel, const RelStore& store) {
    Tuple t;
    for (uint32_t row = 0; row < store.row_count(); ++row) {
      if ((store.RowMask(row) >> k & 1) == 0) continue;
      store.MaterializeRow(row, &t);
      out.Insert(Fact(rel, t));
    }
  });
  return out;
}

// The premise of the masked alternation's stop test (FirstMissingBatch
// stops once the summed world weights of lo and hi repeat): with Gammas
// run over masked copies of one seed, each world's lo weight never falls
// and its hi weight never rises from one round to the next, and each world
// ends on the definitely-true facts of its own alternation.
TEST(WellFoundedTest, MaskedWorldWeightsAreMonotone) {
  size_t rounds_seen = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    std::string text;
    if (seed % 2 == 0) {
      workload::FuzzerOptions fo;
      fo.seed = seed;
      fo.shape = workload::ProgramShape::kWinMove;
      text = workload::GenerateProgram(fo).text;
    } else {
      std::mt19937 rng(14000 + seed);
      text = RandomFixedNegationProgram(rng);
    }
    Result<Program> program = Parse(text);
    ASSERT_TRUE(program.ok()) << text;
    Result<PreparedProgram> prepared =
        PreparedProgram::PrepareFixedNegation(*program);
    ASSERT_TRUE(prepared.ok()) << text;
    const Schema input = InputSchema(*prepared);
    const Instance base = workload::RandomInstance(input, 3, 4, seed);
    std::vector<Instance> js;
    for (uint64_t k = 0; k < 8; ++k) {
      js.push_back(workload::RandomInstance(input, k % 4, 6, 100 * seed + k));
    }
    const uint64_t all = (uint64_t{1} << js.size()) - 1;
    Database seed_db;
    seed_db.EnableMasks(all);
    auto add = [&](const Instance& part, uint64_t worlds) {
      part.ForEachFact([&](uint32_t rel, const Tuple& t) {
        seed_db.StoreOrCreate(rel)->SeedMasked(t, worlds);
      });
    };
    add(base, all);
    for (size_t k = 0; k < js.size(); ++k) add(js[k], uint64_t{1} << k);
    auto gamma = [&](const Database& neg, Database* out) {
      *out = seed_db.ShareDict();
      return prepared->RunFixedNegation(out, neg);
    };
    Database lo = seed_db.ShareDict();  // no Adom: the seed is the input
    Database hi, new_lo, new_hi;
    ASSERT_TRUE(gamma(lo, &hi).ok()) << text;
    std::vector<size_t> lo_w = WorldWeights(lo, js.size());
    std::vector<size_t> hi_w = WorldWeights(hi, js.size());
    while (true) {
      ASSERT_TRUE(gamma(hi, &new_lo).ok()) << text;
      ASSERT_TRUE(gamma(new_lo, &new_hi).ok()) << text;
      const std::vector<size_t> new_lo_w = WorldWeights(new_lo, js.size());
      const std::vector<size_t> new_hi_w = WorldWeights(new_hi, js.size());
      for (size_t k = 0; k < js.size(); ++k) {
        EXPECT_GE(new_lo_w[k], lo_w[k]) << "lo fell in world " << k << text;
        EXPECT_LE(new_hi_w[k], hi_w[k]) << "hi rose in world " << k << text;
      }
      std::swap(lo, new_lo);
      std::swap(hi, new_hi);
      ++rounds_seen;
      if (new_lo_w == lo_w && new_hi_w == hi_w) break;
      lo_w = new_lo_w;
      hi_w = new_hi_w;
    }
    for (size_t k = 0; k < js.size(); ++k) {
      Result<WellFoundedModel> want =
          EvaluateWellFounded(*prepared, {&base, &js[k]});
      ASSERT_TRUE(want.ok()) << text;
      EXPECT_EQ(WorldOf(lo, k).ToString(), want->definitely.ToString())
          << "world " << k << "\n" << text;
    }
  }
  EXPECT_GT(rounds_seen, 40u) << "every alternation stopped at once";
}

// Well-founded union checks run the alternation over {I, J} and probe the
// final lo; the generic overlay evaluator materializes Q(I ∪ J) instead.
TEST(WellFoundedTest, UnionChecksMatchOverlayEvaluator) {
  size_t retracted = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    workload::FuzzerOptions fo;
    fo.seed = seed;
    fo.shape = workload::ProgramShape::kWinMove;
    const workload::GeneratedProgram gen = workload::GenerateProgram(fo);
    DatalogQuery q = DatalogQuery::FromTextOrDie(
        gen.text, "wf", DatalogQuery::Semantics::kWellFounded);
    std::mt19937 rng(12000 + seed);
    for (uint64_t k = 0; k < 4; ++k) {
      const Instance i =
          workload::RandomInstance(q.input_schema(), 1 + k, 3, seed * 8 + k);
      std::vector<Fact> base;
      ASSERT_TRUE(q.EvalFacts(i, &base).ok());
      std::unique_ptr<UnionEvaluator> probe = q.MakeUnionEvaluator(i);
      std::unique_ptr<UnionEvaluator> overlay = MakeOverlayUnionEvaluator(q, i);
      for (int n = 0; n < 6; ++n) {
        const Instance j = workload::RandomInstance(
            q.input_schema(), 1 + Rand(rng, 2), 4, 5000 + seed * 64 + k * 8 + n);
        Result<std::optional<Fact>> a = probe->FirstRetracted(j, base);
        Result<std::optional<Fact>> b = overlay->FirstRetracted(j, base);
        ASSERT_TRUE(a.ok() && b.ok()) << gen.text;
        ASSERT_EQ(a->has_value(), b->has_value())
            << gen.text << "i: " << i.ToString() << "\nj: " << j.ToString();
        if (a->has_value()) {
          EXPECT_EQ(FactToString(**a), FactToString(**b)) << gen.text;
          ++retracted;
        }
      }
    }
  }
  EXPECT_GT(retracted, 0u);
}

}  // namespace
}  // namespace calm::datalog
