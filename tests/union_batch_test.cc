// Parity tests for batched union checks (DESIGN.md "Union checks:
// world-parallel batches"). One masked fixpoint — or, for well-founded
// programs, one masked alternation — answering up to 64 J's must report,
// J by J, exactly what the per-J route and an EvalParts (EvaluateWellFounded)
// + merge reference report — the same first missing fact or the same
// error — and the checker's batched sweeps must return the verdicts,
// witnesses and pair counts of sweeps that ask one J at a time.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "base/durable.h"
#include "base/enumerator.h"
#include "base/instance.h"
#include "base/metrics.h"
#include "base/query.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/prepared.h"
#include "datalog/program.h"
#include "datalog/wellfounded.h"
#include "monotonicity/checker.h"
#include "monotonicity/ladder.h"
#include "queries/graph_queries.h"
#include "queries/paper_programs.h"
#include "workload/fuzzer.h"

namespace calm::datalog {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

size_t Rand(std::mt19937& rng, size_t bound) {
  return std::uniform_int_distribution<size_t>(0, bound - 1)(rng);
}

bool Chance(std::mt19937& rng, double p) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
}

// The engine-diff vocabulary (tests/engine_diff_test.cc) plus Adom: stratum
// 0 is edb, negation only references strictly lower strata, so generated
// programs are always stratifiable.
struct RelSpec {
  const char* name;
  uint32_t arity;
  size_t stratum;
};

constexpr RelSpec kRels[] = {
    {"E", 2, 0}, {"F", 1, 0}, {"G", 3, 0}, {"Adom", 1, 0},  // edb
    {"P", 2, 1}, {"Q", 1, 1},                               // idb, stratum 1
    {"R", 2, 2}, {"S", 1, 2},                               // idb, stratum 2
};
constexpr size_t kNumRels = sizeof(kRels) / sizeof(kRels[0]);
constexpr const char* kVars[] = {"x", "y", "z", "w", "v"};

// Random rules with constants, negation (Adom included), and inequalities.
std::string RandomRule(std::mt19937& rng, size_t head) {
  const size_t stratum = kRels[head].stratum;
  std::vector<std::string> bound;
  std::string body;
  const size_t natoms = 1 + Rand(rng, 3);
  for (size_t a = 0; a < natoms; ++a) {
    size_t rel = Rand(rng, kNumRels);
    while (kRels[rel].stratum > stratum) rel = Rand(rng, kNumRels);
    if (!body.empty()) body += ", ";
    body += kRels[rel].name;
    body += '(';
    for (uint32_t i = 0; i < kRels[rel].arity; ++i) {
      if (i > 0) body += ", ";
      if (Chance(rng, 0.15)) {
        body += std::to_string(Rand(rng, 5));
      } else {
        const char* var = kVars[Rand(rng, 5)];
        body += var;
        bound.push_back(var);
      }
    }
    body += ')';
  }
  auto bound_or_const = [&]() -> std::string {
    if (!bound.empty() && !Chance(rng, 0.1)) {
      return bound[Rand(rng, bound.size())];
    }
    return std::to_string(Rand(rng, 5));
  };
  if (Chance(rng, 0.4) && stratum > 0) {
    size_t rel = Rand(rng, kNumRels);
    while (kRels[rel].stratum >= stratum) rel = Rand(rng, kNumRels);
    body += ", !";
    body += kRels[rel].name;
    body += '(';
    for (uint32_t i = 0; i < kRels[rel].arity; ++i) {
      if (i > 0) body += ", ";
      body += bound_or_const();
    }
    body += ')';
  }
  if (Chance(rng, 0.3) && !bound.empty()) {
    body += ", " + bound[Rand(rng, bound.size())] + " != " + bound_or_const();
  }
  std::string rule = kRels[head].name;
  rule += '(';
  for (uint32_t i = 0; i < kRels[head].arity; ++i) {
    if (i > 0) rule += ", ";
    rule += bound_or_const();
  }
  rule += ") :- " + body + ".";
  return rule;
}

std::string RandomProgram(std::mt19937& rng) {
  std::string text;
  for (size_t rel = 0; rel < kNumRels; ++rel) {
    if (kRels[rel].stratum == 0) continue;
    const size_t nrules = 1 + Rand(rng, 3);
    for (size_t r = 0; r < nrules; ++r) {
      text += RandomRule(rng, rel);
      text += '\n';
    }
  }
  return text + ".output P, Q, R, S\n";
}

Instance RandomBase(std::mt19937& rng) {
  Instance in;
  const size_t nfacts = Rand(rng, 12);
  for (size_t i = 0; i < nfacts; ++i) {
    switch (Rand(rng, 3)) {
      case 0:
        in.Insert(Fact("E", {V(Rand(rng, 5)), V(Rand(rng, 5))}));
        break;
      case 1:
        in.Insert(Fact("F", {V(Rand(rng, 5))}));
        break;
      default:
        in.Insert(
            Fact("G", {V(Rand(rng, 5)), V(Rand(rng, 5)), V(Rand(rng, 5))}));
        break;
    }
  }
  return in;
}

// J facts mix old values (0..4) with fresh ones (100..102), so facts repeat
// across the worlds of one batch, and are sometimes IDB facts, which the
// input schema drops.
Fact RandomJFact(std::mt19937& rng) {
  auto val = [&]() {
    return Chance(rng, 0.5) ? V(Rand(rng, 5)) : V(100 + Rand(rng, 3));
  };
  switch (Rand(rng, 8)) {
    case 0:
      return Fact("F", {val()});
    case 1:
      return Fact("G", {val(), val(), val()});
    case 2:
      return Fact("P", {val(), val()});  // idb: not input
    default:
      return Fact("E", {val(), val()});
  }
}

// Up to three J facts; the empty J is among them.
Instance RandomJ(std::mt19937& rng) {
  Instance j;
  const size_t nfacts = Rand(rng, 4);
  for (size_t i = 0; i < nfacts; ++i) j.Insert(RandomJFact(rng));
  return j;
}

// A batch of J's as the checker hands it over: index subsets of one
// candidate list holding every fact of some J once, in an order shuffled by
// `seed` (so relations interleave, unlike the sweeps' candidate lists).
struct SubsetBatch {
  std::vector<Fact> candidates;
  FactSubsets js;
  size_t shared = 0;  // candidates held by two or more J's
  size_t idb = 0;     // candidates outside `input`
};

SubsetBatch AsSubsets(const std::vector<Instance>& js, const Schema& input,
                      unsigned seed) {
  SubsetBatch out;
  Instance all;
  for (const Instance& j : js) all.InsertAll(j);
  out.candidates = all.AllFacts();
  std::mt19937 shuffle(seed);
  std::shuffle(out.candidates.begin(), out.candidates.end(), shuffle);
  std::vector<size_t> holders(out.candidates.size(), 0);
  std::vector<uint32_t> subset;
  for (const Instance& j : js) {
    subset.clear();
    for (uint32_t c = 0; c < out.candidates.size(); ++c) {
      if (j.Contains(out.candidates[c])) {
        subset.push_back(c);
        ++holders[c];
      }
    }
    out.js.Add(subset);
  }
  for (uint32_t c = 0; c < out.candidates.size(); ++c) {
    out.shared += holders[c] > 1;
    out.idb += input.ArityOf(out.candidates[c].relation) == 0;
  }
  return out;
}

// Default options, with max_total_facts lowered to `cap` when nonzero.
EvalOptions Capped(size_t cap) {
  EvalOptions options;
  if (cap > 0) options.max_total_facts = cap;
  return options;
}

std::string Describe(const Result<std::optional<Fact>>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  return r->has_value() ? FactToString(**r) : "<none>";
}

// The first fact of `probe` missing from `out`, by a sorted merge.
std::optional<Fact> FirstMissingFrom(const Instance& out,
                                     const std::vector<Fact>& probe) {
  const std::vector<Fact> facts = out.AllFacts();
  auto it = facts.begin();
  for (const Fact& f : probe) {
    while (it != facts.end() && *it < f) ++it;
    if (it == facts.end() || !(*it == f)) return f;
  }
  return std::nullopt;
}

// The reference union check: materialize Q(base ∪ j) through EvalParts and
// merge Q(base)'s sorted facts against it.
Result<std::optional<Fact>> ReferenceFirstMissing(
    const DatalogQuery& q, const Instance& base, const Instance& j,
    const std::vector<Fact>& probe) {
  CALM_ASSIGN_OR_RETURN(Instance out, q.prepared().EvalParts(
                                          {&base, &j}, &q.input_schema(),
                                          &q.output_schema()));
  return FirstMissingFrom(out, probe);
}

// Three routes answer every J of the seeded corpus identically:
// FirstRetractedBatch over the batch's candidate-index subsets (one masked
// fixpoint per batch with each candidate seeded once, or its per-J replay
// after a failed run), the per-J from-scratch probe, and the EvalParts +
// merge reference — the same first missing fact, or the same error under a
// small max_total_facts. A masked run that succeeds must also mean every
// world's own run succeeds.
TEST(UnionBatchTest, BatchMatchesPerJProbeAndReference) {
  const size_t kSizes[] = {1, 2, 7, 63, 64};
  size_t checks = 0, errors = 0, missing = 0, capped_batches = 0,
         failed_batches = 0, shared = 0, idb = 0;
  for (size_t cap : {size_t{0}, size_t{14}, size_t{40}}) {
    for (unsigned seed = 0; seed < 80; ++seed) {
      std::mt19937 rng(9000 + seed);
      Result<Program> program = Parse(RandomProgram(rng));
      ASSERT_TRUE(program.ok()) << "generator bug, seed " << seed;
      Result<DatalogQuery> q =
          DatalogQuery::Create(*program, "random", DatalogQuery::Semantics::kStratified,
                               Capped(cap));
      ASSERT_TRUE(q.ok()) << "seed " << seed << ": " << q.status();
      ASSERT_TRUE(q->prepared().SupportsUnionBatch());
      const Instance base = RandomBase(rng);
      std::vector<Fact> probe;
      if (!q->EvalFacts(base, &probe).ok()) continue;  // Q(I) over the cap

      const size_t n = kSizes[seed % 5];
      std::vector<Instance> js;
      for (size_t k = 0; k < n; ++k) js.push_back(RandomJ(rng));
      if (n > 2) {
        js[n - 1] = Instance();  // an empty J
        js[n - 2] = js[0];       // a J repeated whole
      }
      const SubsetBatch sb = AsSubsets(js, q->input_schema(), seed);
      shared += sb.shared;
      idb += sb.idb;

      std::unique_ptr<UnionEvaluator> ev = q->MakeUnionEvaluator(base);
      EXPECT_EQ(ev->MaxBatch(), PreparedProgram::kMaxUnionBatch);
      std::vector<Result<std::optional<Fact>>> got;
      ev->FirstRetractedBatch(sb.candidates, sb.js, probe, &got);
      ASSERT_EQ(got.size(), n);

      std::vector<std::optional<Fact>> masked;
      const Status batch = q->prepared().FirstMissingBatch(
          base, sb.candidates, sb.js, &q->input_schema(), probe, &masked);
      if (cap > 0 && n > 1) ++(batch.ok() ? capped_batches : failed_batches);

      SubsetInstance materialized(sb.candidates);
      for (size_t k = 0; k < n; ++k) {
        const std::string ctx = "cap " + std::to_string(cap) + " seed " +
                                std::to_string(seed) + " world " +
                                std::to_string(k) + "/" + std::to_string(n) +
                                ": " + js[k].ToString() +
                                "\nbase: " + base.ToString();
        EXPECT_EQ(materialized.Set(sb.js[k]), js[k]) << ctx;
        const std::string want =
            Describe(ReferenceFirstMissing(*q, base, js[k], probe));
        const Result<std::optional<Fact>> per_j =
            q->prepared().FirstMissing({&base, &js[k]}, &q->input_schema(),
                                       probe);
        EXPECT_EQ(want, Describe(per_j)) << "per-J probe, " << ctx;
        EXPECT_EQ(want, Describe(got[k])) << "batch, " << ctx;
        if (batch.ok()) {
          EXPECT_TRUE(per_j.ok()) << "the masked run succeeded but this "
                                     "world's own run failed, "
                                  << ctx;
          EXPECT_EQ(want, Describe(masked[k])) << "masked run, " << ctx;
        }
        ++checks;
        errors += want.rfind("error", 0) == 0;
        missing += want.find('(') != std::string::npos;
      }
    }
  }
  EXPECT_GT(checks, 5000u);
  EXPECT_GT(errors, 0u);
  EXPECT_GT(missing, 0u);
  EXPECT_GT(capped_batches, 0u) << "no capped batch ran masked";
  EXPECT_GT(failed_batches, 0u) << "no batch took the per-J replay";
  EXPECT_GT(shared, 0u) << "no candidate was shared by two worlds";
  EXPECT_GT(idb, 0u) << "no candidate was an IDB fact";
}

// A batch run leaves the thread-local scratch plain: the next from-scratch
// evaluation on this thread — after a successful batch and after one that
// hit max_total_facts — sees no world masks.
TEST(UnionBatchTest, ScratchIsPlainAfterABatch) {
  DatalogQuery q = DatalogQuery::FromTextOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
      "O(x, y) :- Adom(x), Adom(y), !T(x, y).",
      "qtc");
  DatalogQuery capped = DatalogQuery::FromTextOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
      "O(x, y) :- Adom(x), Adom(y), !T(x, y).",
      "qtc-capped", DatalogQuery::Semantics::kStratified, Capped(12));
  Instance base;
  base.Insert(Fact("E", {V(0), V(1)}));
  base.Insert(Fact("E", {V(1), V(2)}));
  Instance a;
  a.Insert(Fact("E", {V(2), V(0)}));
  Instance b;
  b.Insert(Fact("E", {V(100), V(101)}));
  const SubsetBatch js = AsSubsets({a, b}, q.input_schema(), 0);

  Result<Instance> fresh = q.EvalUnion(base, a);
  ASSERT_TRUE(fresh.ok());
  std::vector<Fact> probe;
  ASSERT_TRUE(q.EvalFacts(base, &probe).ok());
  std::vector<std::optional<Fact>> out;
  ASSERT_TRUE(q.prepared()
                  .FirstMissingBatch(base, js.candidates, js.js,
                                     &q.input_schema(), probe, &out)
                  .ok());
  ASSERT_TRUE(out[0].has_value());  // closing the cycle retracts O facts
  EXPECT_FALSE(out[1].has_value());
  Result<Instance> after = q.EvalUnion(base, a);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(fresh->ToString(), after->ToString());

  EXPECT_FALSE(capped.prepared()
                   .FirstMissingBatch(base, js.candidates, js.js,
                                      &capped.input_schema(), probe, &out)
                   .ok());
  after = q.EvalUnion(base, a);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(fresh->ToString(), after->ToString());
}

// Every invention-free program takes the masked route, stratified and
// well-founded alike, 64 J's per batch. An ILOG program is not served. The
// native closure queries answer 64 J's per batch from their matrices.
TEST(UnionBatchTest, OnlyInventionFreeProgramsBatch) {
  Instance i;
  DatalogQuery tc = DatalogQuery::FromTextOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T", "tc");
  EXPECT_TRUE(tc.prepared().SupportsUnionBatch());
  EXPECT_EQ(tc.MakeUnionEvaluator(i)->MaxBatch(), 64u);
  const DatalogQuery wf = queries::WinMoveProgram();
  EXPECT_TRUE(wf.prepared().SupportsUnionBatch());
  EXPECT_EQ(wf.MakeUnionEvaluator(i)->MaxBatch(), 64u);
  Result<Program> ilog = Parse("N(*, x) :- S(x). O(v, x) :- N(v, x).");
  ASSERT_TRUE(ilog.ok());
  Result<PreparedProgram> prepared =
      PreparedProgram::Prepare(*ilog, {}, /*allow_invention=*/true);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_FALSE(prepared->SupportsUnionBatch());
  EXPECT_EQ(queries::MakeTransitiveClosure()->MakeUnionEvaluator(i)->MaxBatch(),
            64u);
}

// --- Well-founded batches ---------------------------------------------------

// The fuzzer's win-move programs and hand-written ones with Adom, rule
// constants, inequalities and a negated helper relation. Every program's
// moves are its one binary input relation; Win is IDB in all of them.
std::vector<DatalogQuery> WellFoundedCorpus(size_t cap) {
  std::vector<std::string> texts = {
      "Win(x) :- Move(x, y), !Win(y).\n.output Win\n",
      "Win(x) :- Move(x, y), !Win(y).\nO(x) :- Adom(x), !Win(x).\n.output O\n",
      "Win(x) :- Move(x, y), x != y, !Win(y).\n"
      "Win(x) :- Move(x, 0), !Win(0).\n.output Win\n",
      "Win(x) :- Move(x, y), !Win(y), !Stuck(x).\n"
      "Stuck(x) :- Move(x, x).\n"
      "O(x, y) :- Move(x, y), Win(y), y != 1.\n.output O, Win\n",
  };
  for (uint64_t seed = 0; seed < 8; ++seed) {
    workload::FuzzerOptions fo;
    fo.seed = seed;
    fo.shape = workload::ProgramShape::kWinMove;
    texts.push_back(workload::GenerateProgram(fo).text);
  }
  std::vector<DatalogQuery> out;
  for (size_t t = 0; t < texts.size(); ++t) {
    Result<Program> program = Parse(texts[t]);
    EXPECT_TRUE(program.ok()) << texts[t];
    if (!program.ok()) continue;
    Result<DatalogQuery> q = DatalogQuery::Create(
        *program, "wf-" + std::to_string(t),
        DatalogQuery::Semantics::kWellFounded, Capped(cap));
    EXPECT_TRUE(q.ok()) << texts[t] << q.status();
    if (q.ok()) out.push_back(std::move(q).value());
  }
  return out;
}

// A random instance over the query's input relations: moves among old
// values (0..4), unary facts, and moves that reach fresh values (100..).
Instance RandomGame(std::mt19937& rng, const Schema& input, size_t nfacts) {
  Instance out;
  const std::vector<RelationDecl> rels = input.relations();
  for (size_t f = 0; f < nfacts; ++f) {
    const RelationDecl& r = rels[Rand(rng, rels.size())];
    Tuple t;
    for (uint32_t a = 0; a < r.arity; ++a) {
      t.push_back(Chance(rng, 0.7) ? V(Rand(rng, 5)) : V(100 + Rand(rng, 3)));
    }
    out.Insert(Fact(r.name, t));
  }
  return out;
}

// The binary input relation: the moves.
uint32_t MoveRelation(const Schema& input) {
  for (const RelationDecl& r : input.relations()) {
    if (r.arity == 2) return r.name;
  }
  return 0;
}

// The reference well-founded union check: EvaluateWellFounded over
// base ∪ j, restricted to the output, merged against Q(base)'s facts.
Result<std::optional<Fact>> ReferenceWellFoundedMissing(
    const DatalogQuery& q, const Instance& base, const Instance& j,
    const std::vector<Fact>& probe) {
  CALM_ASSIGN_OR_RETURN(
      WellFoundedModel model,
      EvaluateWellFounded(q.prepared(), {&base, &j}, &q.input_schema()));
  return FirstMissingFrom(model.definitely.Restrict(q.output_schema()), probe);
}

// The well-founded twin of BatchMatchesPerJProbeAndReference: masked
// alternations, the per-J alternation and EvaluateWellFounded + merge agree
// J by J, errors included. Batches mix move chains of length 1 to 6 (so
// worlds converge after different numbers of Gamma steps), random games,
// J's holding only IDB facts, and empty J's.
TEST(UnionBatchTest, WellFoundedBatchMatchesPerJAndReference) {
  const size_t kSizes[] = {1, 2, 7, 63, 64};
  size_t checks = 0, errors = 0, missing = 0, capped_batches = 0,
         failed_batches = 0;
  std::set<size_t> gamma_counts;
  for (size_t cap : {size_t{0}, size_t{14}, size_t{40}}) {
    const std::vector<DatalogQuery> corpus = WellFoundedCorpus(cap);
    for (size_t p = 0; p < corpus.size(); ++p) {
      const DatalogQuery& q = corpus[p];
      ASSERT_TRUE(q.prepared().SupportsUnionBatch());
      const uint32_t move = MoveRelation(q.input_schema());
      ASSERT_NE(move, 0u) << q.name();
      for (unsigned round = 0; round < 5; ++round) {
        std::mt19937 rng(13000 + 100 * p + round);
        const Instance base = RandomGame(rng, q.input_schema(), Rand(rng, 7));
        std::vector<Fact> probe;
        if (!q.EvalFacts(base, &probe).ok()) continue;  // Q(I) over the cap

        const size_t n = kSizes[(p + round) % 5];
        std::vector<Instance> js;
        for (size_t k = 0; k < n; ++k) {
          Instance j;
          switch (k % 4) {
            case 0: {  // a chain of 1 to 6 moves, from an old or fresh start
              uint64_t at = Chance(rng, 0.5) ? Rand(rng, 5) : 200 + 10 * k;
              for (size_t m = 0, len = 1 + Rand(rng, 6); m < len; ++m) {
                j.Insert(Fact(move, {V(at), V(300 + 10 * k + m)}));
                at = 300 + 10 * k + m;
              }
              break;
            }
            case 1:
              j = RandomGame(rng, q.input_schema(), 1 + Rand(rng, 3));
              break;
            case 2:
              j.Insert(Fact("Win", {V(Rand(rng, 5))}));  // idb: not input
              if (Chance(rng, 0.5)) j.Insert(Fact(move, {V(1), V(2)}));
              break;
            default:
              break;  // empty
          }
          js.push_back(std::move(j));
        }
        const SubsetBatch sb =
            AsSubsets(js, q.input_schema(), 100 * p + round);

        std::unique_ptr<UnionEvaluator> ev = q.MakeUnionEvaluator(base);
        EXPECT_EQ(ev->MaxBatch(), PreparedProgram::kMaxUnionBatch);
        std::vector<Result<std::optional<Fact>>> got;
        ev->FirstRetractedBatch(sb.candidates, sb.js, probe, &got);
        ASSERT_EQ(got.size(), n);

        std::vector<std::optional<Fact>> masked;
        size_t gammas = 0;
        const Status batch = q.prepared().FirstMissingBatch(
            base, sb.candidates, sb.js, &q.input_schema(), probe, &masked,
            &gammas);
        if (batch.ok()) gamma_counts.insert(gammas);
        if (cap > 0 && n > 1) ++(batch.ok() ? capped_batches : failed_batches);

        std::unique_ptr<UnionEvaluator> per_j_ev = q.MakeUnionEvaluator(base);
        for (size_t k = 0; k < n; ++k) {
          const std::string ctx =
              "cap " + std::to_string(cap) + " program " + std::to_string(p) +
              " round " + std::to_string(round) + " world " +
              std::to_string(k) + "/" + std::to_string(n) + ": " +
              js[k].ToString() + "\nbase: " + base.ToString();
          const std::string want =
              Describe(ReferenceWellFoundedMissing(q, base, js[k], probe));
          const Result<std::optional<Fact>> per_j =
              per_j_ev->FirstRetracted(js[k], probe);
          EXPECT_EQ(want, Describe(per_j)) << "per-J alternation, " << ctx;
          EXPECT_EQ(want, Describe(got[k])) << "batch, " << ctx;
          if (batch.ok()) {
            EXPECT_TRUE(per_j.ok()) << "the masked run succeeded but this "
                                       "world's own run failed, "
                                    << ctx;
            EXPECT_EQ(want, Describe(masked[k])) << "masked run, " << ctx;
          }
          ++checks;
          errors += want.rfind("error", 0) == 0;
          missing += want.find('(') != std::string::npos;
        }
      }
    }
  }
  EXPECT_GT(checks, 1000u);
  EXPECT_GT(errors, 0u);
  EXPECT_GT(missing, 0u);
  EXPECT_GT(capped_batches, 0u) << "no capped batch ran masked";
  EXPECT_GT(failed_batches, 0u) << "no batch took the per-J replay";
  EXPECT_GE(gamma_counts.size(), 3u) << "batches all ran as many Gammas";
}

// --- Evaluation batches -----------------------------------------------------

std::string DescribeEval(const Result<Instance>& r) {
  return r.ok() ? r->ToString() : "error: " + r.status().ToString();
}

// Tallies of one EvalBatch parity run, so each test can insist that errors,
// masked runs under a cap, and per-input replays all actually happened.
struct EvalBatchTally {
  size_t checks = 0, errors = 0, nonempty = 0, capped_batches = 0,
         failed_batches = 0;
};

// DatalogQuery::EvalBatch against Eval, input by input: the same facts or
// the same error, for every chunking of `inputs` into masked runs. Chunks of
// 2 to 64 inputs also go straight to PreparedProgram::EvalBatch; a masked
// run that succeeds must equal Eval world by world, with no world's own
// run failing.
void CheckEvalBatch(const DatalogQuery& q, const std::vector<Instance>& inputs,
                    size_t cap, const std::string& ctx,
                    EvalBatchTally* tally) {
  std::vector<const Instance*> ptrs;
  for (const Instance& in : inputs) ptrs.push_back(&in);
  std::vector<Result<Instance>> got;
  q.EvalBatch(ptrs, &got);
  ASSERT_EQ(got.size(), inputs.size()) << ctx;
  std::vector<std::string> want;
  for (size_t k = 0; k < inputs.size(); ++k) {
    want.push_back(DescribeEval(q.Eval(inputs[k])));
    EXPECT_EQ(want[k], DescribeEval(got[k]))
        << ctx << " input " << k << "/" << inputs.size() << ": "
        << inputs[k].ToString();
    ++tally->checks;
    tally->errors += want[k].rfind("error", 0) == 0;
    tally->nonempty += want[k] != "{}" && want[k].rfind("error", 0) != 0;
  }
  for (size_t start = 0; start < inputs.size();
       start += PreparedProgram::kMaxUnionBatch) {
    const size_t n =
        std::min(PreparedProgram::kMaxUnionBatch, inputs.size() - start);
    if (n < 2) continue;
    std::vector<const Instance*> chunk(ptrs.begin() + start,
                                       ptrs.begin() + start + n);
    std::vector<Instance> worlds;
    const Status s = q.prepared().EvalBatch(chunk, &q.input_schema(),
                                            &q.output_schema(), &worlds);
    if (cap > 0) ++(s.ok() ? tally->capped_batches : tally->failed_batches);
    if (!s.ok()) continue;
    ASSERT_EQ(worlds.size(), n) << ctx;
    for (size_t k = 0; k < n; ++k) {
      EXPECT_EQ(want[start + k], DescribeEval(worlds[k]))
          << "masked run, " << ctx << " world " << k << ": "
          << chunk[k]->ToString();
    }
  }
}

constexpr size_t kEvalBatchSizes[] = {1, 2, 7, 63, 64, 65, 130};

// Stratified programs with Adom, negation, constants and inequalities:
// every batch size, with and without caps, inputs mixing bases, J's
// (which may carry IDB facts the input schema drops) and empty instances.
TEST(EvalBatchTest, StratifiedMatchesPerInputEval) {
  EvalBatchTally tally;
  for (size_t cap : {size_t{0}, size_t{14}, size_t{40}}) {
    for (unsigned seed = 0; seed < 21; ++seed) {
      std::mt19937 rng(15000 + seed);
      Result<Program> program = Parse(RandomProgram(rng));
      ASSERT_TRUE(program.ok()) << "generator bug, seed " << seed;
      Result<DatalogQuery> q = DatalogQuery::Create(
          *program, "random", DatalogQuery::Semantics::kStratified,
          Capped(cap));
      ASSERT_TRUE(q.ok()) << q.status();
      const size_t n = kEvalBatchSizes[seed % 7];
      std::vector<Instance> inputs;
      for (size_t k = 0; k < n; ++k) {
        inputs.push_back(k % 5 == 4 ? Instance()
                         : k % 2 == 0 ? RandomBase(rng)
                                      : Instance::Union(RandomBase(rng),
                                                        RandomJ(rng)));
      }
      CheckEvalBatch(*q, inputs, cap,
                     "cap " + std::to_string(cap) + " seed " +
                         std::to_string(seed),
                     &tally);
    }
  }
  EXPECT_GT(tally.checks, 1500u);
  EXPECT_GT(tally.errors, 0u);
  EXPECT_GT(tally.nonempty, 0u);
  EXPECT_GT(tally.capped_batches, 0u) << "no capped batch ran masked";
  EXPECT_GT(tally.failed_batches, 0u) << "no batch took the per-input replay";
}

// Well-founded win-move programs: one masked alternation per chunk.
TEST(EvalBatchTest, WellFoundedMatchesPerInputEval) {
  EvalBatchTally tally;
  for (size_t cap : {size_t{0}, size_t{14}, size_t{40}}) {
    const std::vector<DatalogQuery> corpus = WellFoundedCorpus(cap);
    for (size_t p = 0; p < corpus.size(); ++p) {
      const DatalogQuery& q = corpus[p];
      std::mt19937 rng(17000 + p);
      const size_t n = kEvalBatchSizes[(p + cap) % 7];
      std::vector<Instance> inputs;
      for (size_t k = 0; k < n; ++k) {
        inputs.push_back(k % 6 == 5 ? Instance()
                                    : RandomGame(rng, q.input_schema(),
                                                 Rand(rng, 9)));
      }
      CheckEvalBatch(q, inputs, cap,
                     "cap " + std::to_string(cap) + " program " +
                         std::to_string(p),
                     &tally);
    }
  }
  EXPECT_GT(tally.checks, 500u);
  EXPECT_GT(tally.errors, 0u);
  EXPECT_GT(tally.nonempty, 0u);
  EXPECT_GT(tally.capped_batches, 0u) << "no capped batch ran masked";
  EXPECT_GT(tally.failed_batches, 0u) << "no batch took the per-input replay";
}

// UnionEvaluator parity at the Query layer: the closure-matrix evaluators of
// TC and Q_TC report the byte-identical first-retracted fact the generic
// overlay evaluator reports, pair by pair.
TEST(UnionEvaluatorTest, EngineEvaluatorsMatchOverlayRoute) {
  std::vector<std::unique_ptr<Query>> queries;
  queries.push_back(queries::MakeTransitiveClosure());
  queries.push_back(queries::MakeComplementTransitiveClosure());

  for (const auto& q : queries) {
    for (unsigned seed = 0; seed < 20; ++seed) {
      std::mt19937 rng(8000 + seed);
      Instance i;
      const size_t nedges = Rand(rng, 6);
      for (size_t k = 0; k < nedges; ++k) {
        i.Insert(Fact("E", {V(Rand(rng, 4)), V(Rand(rng, 4))}));
      }
      std::vector<Fact> base;
      ASSERT_TRUE(q->EvalFacts(i, &base).ok());
      std::unique_ptr<UnionEvaluator> engine = q->MakeUnionEvaluator(i);
      std::unique_ptr<UnionEvaluator> overlay =
          MakeOverlayUnionEvaluator(*q, i);
      for (int pair = 0; pair < 8; ++pair) {
        Instance j;
        const size_t jedges = Rand(rng, 3);
        for (size_t k = 0; k < jedges; ++k) {
          // Old, fresh, and bridging endpoints: exercises the fresh-component
          // shortcut, the remap/saturate path, and real retractions (a new
          // edge between base vertices can shrink Q_TC).
          auto val = [&]() {
            return Chance(rng, 0.5) ? V(Rand(rng, 4)) : V(200 + Rand(rng, 2));
          };
          j.Insert(Fact("E", {val(), val()}));
        }
        Result<std::optional<Fact>> a = engine->FirstRetracted(j, base);
        Result<std::optional<Fact>> b = overlay->FirstRetracted(j, base);
        ASSERT_TRUE(a.ok() && b.ok()) << q->name() << " seed " << seed;
        EXPECT_EQ(Describe(a), Describe(b))
            << q->name() << " seed " << seed << "\ni: " << i.ToString()
            << "\nj: " << j.ToString();
      }
    }
  }
}

// The closure evaluators' 64-vertex masks at their boundary: path bases of
// 63, 64 and 65 vertices (a 65-vertex base gets the overlay evaluator), and
// J's whose union has up to 66. Fresh values sort below and above the base,
// so union indices shift; the J's close cycles at the first and the last
// mask bits, add one or two fresh vertices, or touch no base vertex.
TEST(UnionEvaluatorTest, ClosureEvaluatorsMatchOverlayAtTheMaskWidth) {
  std::vector<std::unique_ptr<Query>> queries;
  queries.push_back(queries::MakeTransitiveClosure());
  queries.push_back(queries::MakeComplementTransitiveClosure());
  auto e = [](uint64_t a, uint64_t b) { return Fact("E", {V(a), V(b)}); };
  size_t retractions = 0;
  for (uint64_t n : {63u, 64u, 65u}) {
    const uint64_t first = 100, last = first + n - 1;
    Instance base;
    for (uint64_t v = first; v < last; ++v) base.Insert(e(v, v + 1));
    const std::vector<Instance> js = {
        Instance{e(last, first)},
        Instance{e(last, last - 1)},
        Instance{e(first + 40, first + 10)},
        Instance{e(last, 1000)},
        Instance{e(5, first)},
        Instance{e(last, 1000), e(1000, first)},
        Instance{e(last, 5), e(5, 6), e(6, first)},
        Instance{e(last, 1000), e(1000, 1001), e(1001, last - 1)},
        Instance{e(5, 1000)},
        Instance{e(1000, 1001), e(1001, 1000)},
    };
    for (const auto& q : queries) {
      std::vector<Fact> base_facts;
      ASSERT_TRUE(q->EvalFacts(base, &base_facts).ok());
      std::unique_ptr<UnionEvaluator> engine = q->MakeUnionEvaluator(base);
      std::unique_ptr<UnionEvaluator> overlay =
          MakeOverlayUnionEvaluator(*q, base);
      for (const Instance& j : js) {
        Result<std::optional<Fact>> a = engine->FirstRetracted(j, base_facts);
        Result<std::optional<Fact>> b = overlay->FirstRetracted(j, base_facts);
        ASSERT_TRUE(a.ok() && b.ok()) << q->name() << " n " << n;
        EXPECT_EQ(Describe(a), Describe(b))
            << q->name() << " n " << n << "\nj: " << j.ToString();
        retractions += b->has_value();
      }
    }
  }
  EXPECT_GT(retractions, 0u) << "no J retracted anything";
}

// The closure evaluators' batches: FirstRetractedBatch over every J of at
// most two candidates answers, J by J, what FirstRetracted and the overlay
// evaluator answer. A 60-vertex path base and candidate endpoints outside
// it (sorting below and above the base) make batch universes of 63, 64 and
// 65 vertices; the 65-vertex batch is answered one J at a time. Candidates
// close cycles over the base, bridge through outside vertices, touch no
// base vertex at all, or belong to a relation other than E.
TEST(UnionEvaluatorTest, ClosureBatchesMatchPerJAndOverlay) {
  std::vector<std::unique_ptr<Query>> queries;
  queries.push_back(queries::MakeTransitiveClosure());
  queries.push_back(queries::MakeComplementTransitiveClosure());
  auto e = [](uint64_t a, uint64_t b) { return Fact("E", {V(a), V(b)}); };
  const uint64_t first = 100, last = 159;
  Instance base;
  for (uint64_t v = first; v < last; ++v) base.Insert(e(v, v + 1));
  const std::set<Value> adom = base.ActiveDomain();
  size_t retractions = 0, off_base = 0;
  for (uint64_t universe : {63u, 64u, 65u}) {
    // The outside endpoints: 5, 6, 1000, 1001, ... (universe - 60 of them).
    std::vector<uint64_t> outside = {5, 6};
    while (outside.size() < universe - 60) {
      outside.push_back(1000 + outside.size() - 2);
    }
    std::vector<Fact> candidates = {e(last, first), e(first + 30, first + 10),
                                    Fact("F", {V(first)})};
    for (size_t k = 0; k + 1 < outside.size(); ++k) {
      candidates.push_back(e(outside[k], outside[k + 1]));
    }
    candidates.push_back(e(last, outside.back()));
    candidates.push_back(e(outside.back(), first));
    candidates.push_back(e(outside[0], first + 20));
    FactSubsets js;
    ForEachIndexSubset(candidates.size(), 2, {},
                       [&](std::span<const uint32_t> j) {
                         js.Add(j);
                         return true;
                       });
    ASSERT_LE(js.size(), 64u);
    for (const auto& q : queries) {
      SCOPED_TRACE(q->name() + " universe " + std::to_string(universe));
      std::vector<Fact> base_facts;
      ASSERT_TRUE(q->EvalFacts(base, &base_facts).ok());
      std::unique_ptr<UnionEvaluator> engine = q->MakeUnionEvaluator(base);
      ASSERT_EQ(engine->MaxBatch(), 64u);
      std::unique_ptr<UnionEvaluator> per_j = q->MakeUnionEvaluator(base);
      std::unique_ptr<UnionEvaluator> overlay =
          MakeOverlayUnionEvaluator(*q, base);
      std::vector<Result<std::optional<Fact>>> batch;
      engine->FirstRetractedBatch(candidates, js, base_facts, &batch);
      ASSERT_EQ(batch.size(), js.size());
      for (size_t k = 0; k < js.size(); ++k) {
        Instance j;
        bool touches_base = false;
        for (uint32_t c : js[k]) {
          j.Insert(candidates[c]);
          const Fact& f = candidates[c];
          touches_base = touches_base ||
                         (f.arity() == 2 && (adom.count(f.args[0]) > 0 ||
                                             adom.count(f.args[1]) > 0));
        }
        const Result<std::optional<Fact>> a = per_j->FirstRetracted(j, base_facts);
        const Result<std::optional<Fact>> b =
            overlay->FirstRetracted(j, base_facts);
        ASSERT_TRUE(batch[k].ok() && a.ok() && b.ok()) << j.ToString();
        EXPECT_EQ(Describe(batch[k]), Describe(b)) << "j: " << j.ToString();
        EXPECT_EQ(Describe(a), Describe(b)) << "j: " << j.ToString();
        retractions += b->has_value();
        off_base += !touches_base;
      }
    }
  }
  EXPECT_GT(retractions, 0u) << "no J retracted anything";
  EXPECT_GT(off_base, 0u) << "every J touched the base";
}

// --- Checker level ----------------------------------------------------------

// A Query forwarding everything to `inner`, except that its union evaluator
// forwards FirstRetracted only: it keeps the default per-J batch, so sweeps
// over it check one J at a time.
class PerJQuery : public Query {
 public:
  explicit PerJQuery(const Query& inner) : inner_(inner) {}
  const Schema& input_schema() const override { return inner_.input_schema(); }
  const Schema& output_schema() const override {
    return inner_.output_schema();
  }
  std::string name() const override { return inner_.name(); }
  Result<Instance> Eval(const Instance& input) const override {
    return inner_.Eval(input);
  }
  Result<Instance> EvalUnion(const Instance& a,
                             const Instance& b) const override {
    return inner_.EvalUnion(a, b);
  }
  Status EvalFacts(const Instance& input,
                   std::vector<Fact>* out) const override {
    return inner_.EvalFacts(input, out);
  }
  std::unique_ptr<UnionEvaluator> MakeUnionEvaluator(
      const Instance& i) const override {
    return std::make_unique<PerJEvaluator>(inner_.MakeUnionEvaluator(i));
  }

 private:
  class PerJEvaluator : public UnionEvaluator {
   public:
    explicit PerJEvaluator(std::unique_ptr<UnionEvaluator> inner)
        : inner_(std::move(inner)) {}
    Result<std::optional<Fact>> FirstRetracted(
        const Instance& j, const std::vector<Fact>& base_facts) override {
      return inner_->FirstRetracted(j, base_facts);
    }

   private:
    std::unique_ptr<UnionEvaluator> inner_;
  };

  const Query& inner_;
};

uint64_t CounterTotal(const char* name) {
  uint64_t total = 0;
  for (const char* cls : {"M", "Mdistinct", "Mdisjoint"}) {
    total += MetricRegistry::Global().GetCounter(name, {{"class", cls}}).Value();
  }
  return total;
}

struct SweepRecord {
  std::string verdicts;  // ladder table and witnesses, or the error
  uint64_t pairs = 0;
  uint64_t instances = 0;
};

SweepRecord RunLadder(const Query& q, const monotonicity::ExhaustiveOptions& o,
                      size_t max_i) {
  const uint64_t pairs0 = CounterTotal("calm.checker.pairs_checked");
  const uint64_t inst0 = CounterTotal("calm.checker.instances_examined");
  Result<monotonicity::Ladder> ladder = monotonicity::ComputeLadder(q, max_i, o);
  SweepRecord rec;
  if (!ladder.ok()) {
    rec.verdicts = "error: " + ladder.status().ToString();
  } else {
    rec.verdicts = ladder->ToString();
    for (const monotonicity::LadderRow& row : ladder->rows) {
      for (const auto* w : {&row.m_witness, &row.distinct_witness,
                            &row.disjoint_witness}) {
        rec.verdicts += w->has_value() ? (*w)->ToString() + "\n" : "-\n";
      }
    }
  }
  rec.pairs = CounterTotal("calm.checker.pairs_checked") - pairs0;
  rec.instances = CounterTotal("calm.checker.instances_examined") - inst0;
  return rec;
}

SweepRecord RunFindViolation(const Query& q, monotonicity::MonotonicityClass cls,
                             const monotonicity::ExhaustiveOptions& o) {
  const uint64_t pairs0 = CounterTotal("calm.checker.pairs_checked");
  const uint64_t inst0 = CounterTotal("calm.checker.instances_examined");
  Result<std::optional<monotonicity::Counterexample>> r =
      monotonicity::FindViolation(q, cls, o);
  SweepRecord rec;
  rec.verdicts = !r.ok()            ? "error: " + r.status().ToString()
                 : r->has_value() ? (*r)->ToString()
                                  : "<no violation>";
  rec.pairs = CounterTotal("calm.checker.pairs_checked") - pairs0;
  rec.instances = CounterTotal("calm.checker.instances_examined") - inst0;
  return rec;
}

// Specimens and fuzzer programs.
std::vector<DatalogQuery> CheckerCorpus() {
  std::vector<DatalogQuery> out;
  out.push_back(queries::ComplementTcProgram());
  out.push_back(queries::Example51P1());
  out.push_back(queries::Example51P2());
  out.push_back(queries::CliqueProgram(3));
  out.push_back(queries::StarProgram(2));
  out.push_back(queries::DuplicateProgram(2));
  out.push_back(queries::WinMoveProgram());
  for (size_t shape = 0; shape < workload::kProgramShapeCount; ++shape) {
    for (uint64_t seed : {3, 11}) {
      workload::FuzzerOptions fo;
      fo.seed = seed;
      fo.shape = static_cast<workload::ProgramShape>(shape);
      workload::GeneratedProgram gp = workload::GenerateProgram(fo);
      out.push_back(DatalogQuery::FromTextOrDie(
          gp.text, std::string(workload::ProgramShapeName(fo.shape)) + "-" +
                       std::to_string(seed),
          gp.semantics));
    }
  }
  return out;
}

// Ladders and one-cell sweeps over the batched route return the verdicts
// and witnesses of per-J sweeps, at 1 and 4 checker threads, with the
// symmetry reduction on (kAuto) and off; serial sweeps also check and
// examine exactly as many pairs and instances.
TEST(UnionBatchCheckerTest, SweepsMatchPerJSweeps) {
  const bool metrics_were_on = MetricsEnabled();
  SetMetricsEnabled(true);
  size_t violations = 0;
  for (const DatalogQuery& q : CheckerCorpus()) {
    PerJQuery per_j(q);
    for (SymmetryMode symmetry : {SymmetryMode::kAuto, SymmetryMode::kOff}) {
      for (size_t threads : {1u, 4u}) {
        monotonicity::ExhaustiveOptions o;
        o.domain_size = 2;
        o.max_facts_i = 2;
        o.fresh_values = 2;
        o.threads = threads;
        o.symmetry = symmetry;
        const std::string ctx = q.name() + " threads " +
                                std::to_string(threads) + " symmetry " +
                                std::to_string(static_cast<int>(symmetry));
        const SweepRecord a = RunLadder(q, o, 2);
        const SweepRecord b = RunLadder(per_j, o, 2);
        EXPECT_EQ(a.verdicts, b.verdicts) << "ladder, " << ctx;
        violations += a.verdicts.find("retracted") != std::string::npos;
        for (auto cls : {monotonicity::MonotonicityClass::kMonotone,
                         monotonicity::MonotonicityClass::kDomainDisjoint}) {
          o.max_facts_j = 2;
          const SweepRecord c = RunFindViolation(q, cls, o);
          const SweepRecord d = RunFindViolation(per_j, cls, o);
          EXPECT_EQ(c.verdicts, d.verdicts) << "one cell, " << ctx;
          if (threads == 1) {
            EXPECT_EQ(c.pairs, d.pairs) << "one cell, " << ctx;
            EXPECT_EQ(c.instances, d.instances) << "one cell, " << ctx;
          }
        }
        if (threads == 1) {
          EXPECT_EQ(a.pairs, b.pairs) << "ladder, " << ctx;
          EXPECT_EQ(a.instances, b.instances) << "ladder, " << ctx;
          EXPECT_GT(a.pairs, 0u) << ctx;
        }
      }
    }
  }
  SetMetricsEnabled(metrics_were_on);
  EXPECT_GT(violations, 0u);
}

// Candidate lists longer than 64 facts: one ternary and one binary relation
// at domain 2 with 2 fresh values give up to 4^3 + 4^2 = 80 candidates per
// I, so batches hold candidate indices past 63 (the index lists, not the
// 64-bit world masks, address candidates). Ladders over the batched route
// match per-J ladders at 1 and 4 threads, reduced and full, for a monotone
// query and for two whose violations need a fact of either relation.
TEST(UnionBatchCheckerTest, WideCandidateListsMatchPerJ) {
  const bool metrics_were_on = MetricsEnabled();
  SetMetricsEnabled(true);
  const Schema schema({{"G", 3}, {"E", 2}});
  const std::vector<Value> fresh = IntDomain(2, 1000);
  size_t widest = 0;
  for (const Instance& i : AllInstances(schema, IntDomain(2), 1)) {
    widest = std::max(widest, monotonicity::CandidateJFacts(
                                  schema, i, fresh,
                                  monotonicity::MonotonicityClass::kMonotone)
                                  .size());
  }
  EXPECT_GT(widest, 64u);
  size_t violations = 0;
  for (const char* text : {"O(x, z) :- G(x, y, z), E(y, z).",
                           "O(x) :- E(x, y), !G(y, y, x).",
                           "O(x, y, z) :- G(x, y, z), !E(z, x)."}) {
    const DatalogQuery q = DatalogQuery::FromTextOrDie(text, text);
    PerJQuery per_j(q);
    for (SymmetryMode symmetry : {SymmetryMode::kAuto, SymmetryMode::kOff}) {
      for (size_t threads : {1u, 4u}) {
        monotonicity::ExhaustiveOptions o;
        o.domain_size = 2;
        o.max_facts_i = 1;
        o.fresh_values = 2;
        o.threads = threads;
        o.symmetry = symmetry;
        const std::string ctx = std::string(text) + " threads " +
                                std::to_string(threads) + " symmetry " +
                                std::to_string(static_cast<int>(symmetry));
        const SweepRecord a = RunLadder(q, o, 2);
        const SweepRecord b = RunLadder(per_j, o, 2);
        EXPECT_EQ(a.verdicts, b.verdicts) << ctx;
        violations += a.verdicts.find("retracted") != std::string::npos;
        if (threads == 1) {
          EXPECT_EQ(a.pairs, b.pairs) << ctx;
          EXPECT_EQ(a.instances, b.instances) << ctx;
          EXPECT_GT(a.pairs, 64u) << ctx;
        }
      }
    }
  }
  SetMetricsEnabled(metrics_were_on);
  EXPECT_EQ(violations, 8u);
}

// A capped program's error answers stop the batched sweep as per-J errors
// do. Under max_total_facts = 7 this stratified program evaluates every I
// of the spaces below but fails on some unions I u J, so masked batches
// fall back and answer those J's with an error. The batched ladder must
// fail with the first erroring cell's status, exactly as the per-J
// forwarding query's ladder does, at 1 and 4 threads: once over a
// materialized plan (domain 2, |I| <= 2, two rows) and once over a streamed
// one (domain 3, |I| <= 2, three rows, full sweep: over kMaxPlanPairs).
TEST(UnionBatchCheckerTest, ErrorAnswersFailLikePerJ) {
  const bool metrics_were_on = MetricsEnabled();
  SetMetricsEnabled(true);
  datalog::EvalOptions capped;
  capped.max_total_facts = 7;
  const DatalogQuery q = DatalogQuery::FromTextOrDie(
      "P(x) :- E(x, y), !F(y).\n"
      "O(x, y) :- E(x, y), F(x), !P(y).\n.output O\n",
      "capped", DatalogQuery::Semantics::kStratified, capped);
  PerJQuery per_j(q);
  Counter& streamed =
      MetricRegistry::Global().GetCounter("calm.checker.streamed_sweeps");
  Counter& fallbacks =
      MetricRegistry::Global().GetCounter("calm.eval.union_batch_fallbacks");
  for (const bool stream : {false, true}) {
    monotonicity::ExhaustiveOptions o;
    o.domain_size = stream ? 3 : 2;
    o.max_facts_i = 2;
    o.fresh_values = 2;
    o.symmetry = SymmetryMode::kOff;
    const size_t max_i = stream ? 3 : 2;
    for (size_t threads : {1u, 4u}) {
      o.threads = threads;
      const std::string ctx = std::string(stream ? "streamed" : "planned") +
                              " threads " + std::to_string(threads);
      const uint64_t streamed0 = streamed.Value();
      const uint64_t fallbacks0 = fallbacks.Value();
      const SweepRecord a = RunLadder(q, o, max_i);
      EXPECT_EQ(streamed.Value() - streamed0, stream ? 1u : 0u) << ctx;
      EXPECT_GT(fallbacks.Value(), fallbacks0) << ctx;
      const SweepRecord b = RunLadder(per_j, o, max_i);
      EXPECT_EQ(a.verdicts.rfind("error: RESOURCE_EXHAUSTED", 0), 0u)
          << ctx << ": " << a.verdicts;
      EXPECT_EQ(a.verdicts, b.verdicts) << ctx;
    }
  }
  SetMetricsEnabled(metrics_were_on);
}

// Win-move is domain-disjoint monotone, so a one-cell Mdisjoint sweep finds
// no violation and checks every pair. At domain 4 with three facts, I can
// hold the chain 0 -> 1 -> 2 -> 3, where Win(0) first enters lo in the
// alternation's second round: a masked alternation that stopped after one
// lo/hi round would report Win(0) retracted. (At domain 2 every component
// of I settles in one round.)
TEST(UnionBatchCheckerTest, WinMoveDisjointSweepAlternatesToTheEnd) {
  const bool metrics_were_on = MetricsEnabled();
  SetMetricsEnabled(true);
  const DatalogQuery q = queries::WinMoveProgram();
  PerJQuery per_j(q);
  monotonicity::ExhaustiveOptions o;
  o.domain_size = 4;
  o.max_facts_i = 3;
  o.fresh_values = 2;
  o.max_facts_j = 2;
  o.threads = 1;
  const auto cls = monotonicity::MonotonicityClass::kDomainDisjoint;
  const SweepRecord a = RunFindViolation(q, cls, o);
  const SweepRecord b = RunFindViolation(per_j, cls, o);
  SetMetricsEnabled(metrics_were_on);
  EXPECT_EQ(a.verdicts, "<no violation>");
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_GT(a.pairs, 0u);
}

// Forwards every call, batches included, and raises `cancel` once `after`
// batches have been asked: a deterministic mid-sweep cancel at one thread.
class CancellingQuery : public Query {
 public:
  CancellingQuery(const Query& inner, std::atomic<bool>* cancel, size_t after)
      : inner_(inner), cancel_(cancel), after_(after) {}
  const Schema& input_schema() const override { return inner_.input_schema(); }
  const Schema& output_schema() const override {
    return inner_.output_schema();
  }
  std::string name() const override { return inner_.name(); }
  Result<Instance> Eval(const Instance& input) const override {
    return inner_.Eval(input);
  }
  Status EvalFacts(const Instance& input,
                   std::vector<Fact>* out) const override {
    return inner_.EvalFacts(input, out);
  }
  std::unique_ptr<UnionEvaluator> MakeUnionEvaluator(
      const Instance& i) const override {
    return std::make_unique<Evaluator>(inner_.MakeUnionEvaluator(i), this);
  }

 private:
  class Evaluator : public UnionEvaluator {
   public:
    Evaluator(std::unique_ptr<UnionEvaluator> inner,
              const CancellingQuery* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    Result<std::optional<Fact>> FirstRetracted(
        const Instance& j, const std::vector<Fact>& base_facts) override {
      return inner_->FirstRetracted(j, base_facts);
    }
    void FirstRetractedBatch(
        const std::vector<Fact>& candidates, const FactSubsets& js,
        const std::vector<Fact>& base_facts,
        std::vector<Result<std::optional<Fact>>>* out) override {
      if (++owner_->batches_ >= owner_->after_) owner_->cancel_->store(true);
      inner_->FirstRetractedBatch(candidates, js, base_facts, out);
    }
    size_t MaxBatch() const override { return inner_->MaxBatch(); }

   private:
    std::unique_ptr<UnionEvaluator> inner_;
    const CancellingQuery* owner_;
  };

  const Query& inner_;
  std::atomic<bool>* cancel_;
  size_t after_;
  mutable size_t batches_ = 0;
};

std::string MakeTempDir() {
  static int n = 0;
  std::string dir = ::testing::TempDir() + "calm_union_batch_" +
                    std::to_string(::getpid()) + "_" + std::to_string(n++);
  EXPECT_TRUE(durable::MakeDirs(dir).ok());
  return dir;
}

// A journaled one-cell sweep over the batched route, cancelled partway and
// resumed, ends with the per-J sweep's verdict and witness.
TEST(UnionBatchCheckerTest, CancelledCheckpointedSweepResumes) {
  DatalogQuery q = DatalogQuery::FromTextOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
      "O(x, y) :- Adom(x), Adom(y), !T(x, y).",
      "qtc-resume");
  monotonicity::ExhaustiveOptions o;
  o.domain_size = 3;
  o.max_facts_i = 2;
  o.fresh_values = 2;
  o.max_facts_j = 2;
  o.threads = 1;
  o.symmetry = SymmetryMode::kOff;
  for (auto cls : {monotonicity::MonotonicityClass::kMonotone,
                   monotonicity::MonotonicityClass::kDomainDisjoint}) {
    Result<std::optional<monotonicity::Counterexample>> want =
        monotonicity::FindViolation(PerJQuery(q), cls, o);
    ASSERT_TRUE(want.ok());

    monotonicity::ExhaustiveOptions journaled = o;
    journaled.checkpoint_dir = MakeTempDir();
    std::atomic<bool> cancel{false};
    journaled.cancel = &cancel;
    CancellingQuery cancelling(q, &cancel, 3);
    Result<std::optional<monotonicity::Counterexample>> first =
        monotonicity::FindViolation(cancelling, cls, journaled);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), StatusCode::kDeadlineExceeded);

    cancel.store(false);
    CancellingQuery resumed_query(q, &cancel, SIZE_MAX);
    Result<std::optional<monotonicity::Counterexample>> resumed =
        monotonicity::FindViolation(resumed_query, cls, journaled);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_EQ(want->has_value(), resumed->has_value());
    if (want->has_value()) {
      EXPECT_EQ((*want)->ToString(), (*resumed)->ToString());
    }
  }
}

}  // namespace
}  // namespace calm::datalog
