// Parity and rollback tests for incremental union evaluation (DESIGN.md
// "Union checks: size-selected probes, overlays and epoch-versioned
// storage"): EvalOverlay over a materialized base fixpoint must produce
// byte-identical facts to the from-scratch EvalParts run on every
// overlay — across random stratified
// programs, the Adom/negation recompute path, the fallback gates, and
// repeated overlays on one evaluator (which exercises the epoch rollback
// and base-row restoration between checks). The checker-level tests pin
// verdict identity between --incremental=on and off at several thread
// counts, for both Datalog and native closure queries, and the union-check
// routes (from scratch, overlay, reference) agree pair by pair.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "base/enumerator.h"
#include "base/instance.h"
#include "base/metrics.h"
#include "base/query.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/prepared.h"
#include "datalog/program.h"
#include "datalog/relstore.h"
#include "monotonicity/checker.h"
#include "queries/graph_queries.h"

namespace calm::datalog {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

size_t Rand(std::mt19937& rng, size_t bound) {
  return std::uniform_int_distribution<size_t>(0, bound - 1)(rng);
}

bool Chance(std::mt19937& rng, double p) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
}

// The engine-diff vocabulary (tests/engine_diff_test.cc): stratum 0 is edb,
// negation only references strictly lower strata, so generated programs are
// always stratifiable.
struct RelSpec {
  const char* name;
  uint32_t arity;
  size_t stratum;
};

constexpr RelSpec kRels[] = {
    {"E", 2, 0}, {"F", 1, 0}, {"G", 3, 0},  // edb
    {"P", 2, 1}, {"Q", 1, 1},               // idb, stratum 1
    {"R", 2, 2}, {"S", 1, 2},               // idb, stratum 2
};
constexpr size_t kNumRels = sizeof(kRels) / sizeof(kRels[0]);
constexpr const char* kVars[] = {"x", "y", "z", "w", "v"};

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
  return text;
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

// Overlays mix old values (0..4) with fresh ones (100..) and occasionally
// include an IDB fact, which the incremental path cannot absorb — that J
// must take the fallback route and still agree with the from-scratch run.
Instance RandomOverlay(std::mt19937& rng) {
  Instance j;
  const size_t nfacts = Rand(rng, 4);  // includes the empty overlay
  auto val = [&]() {
    return Chance(rng, 0.5) ? V(Rand(rng, 5)) : V(100 + Rand(rng, 3));
  };
  for (size_t i = 0; i < nfacts; ++i) {
    switch (Rand(rng, 8)) {
      case 0:
        j.Insert(Fact("F", {val()}));
        break;
      case 1:
        j.Insert(Fact("G", {val(), val(), val()}));
        break;
      case 2:
        j.Insert(Fact("P", {val(), val()}));  // idb: forces fallback
        break;
      default:
        j.Insert(Fact("E", {val(), val()}));
        break;
    }
  }
  return j;
}

// The targeted delta tests pin the bytecode engine explicitly: they assert
// supported() and the superset short-circuit, which the tree-engine oracle
// (CALM_ENGINE=tree CI leg) legitimately declines via fallback.
EvalOptions BytecodeOptions() {
  EvalOptions options;
  options.engine = EvalEngine::kBytecode;
  return options;
}

std::vector<Fact> InstanceFacts(const Instance& in) {
  std::vector<Fact> out;
  in.ForEachFact(
      [&](uint32_t name, const Tuple& t) { out.emplace_back(name, t); });
  return out;
}

std::string FactsToString(const std::vector<Fact>& facts) {
  std::string s;
  for (const Fact& f : facts) {
    s += FactToString(f);
    s += '\n';
  }
  return s;
}

// Runs `overlays` through one IncrementalEval (in order, reusing it — the
// epoch rollback between calls is what keeps later answers honest) and
// checks each against the from-scratch EvalParts run.
void ExpectOverlaysMatch(const PreparedProgram& prepared, const Instance& base,
                         const std::vector<Instance>& overlays,
                         const std::string& label) {
  std::unique_ptr<IncrementalEval> inc = prepared.BeginIncremental(base);
  std::vector<Fact> got;
  for (size_t k = 0; k < overlays.size(); ++k) {
    const Instance& j = overlays[k];
    const std::string ctx =
        label + " overlay " + std::to_string(k) + ": " + j.ToString() +
        "\nbase: " + base.ToString();
    Result<Instance> scratch = prepared.EvalParts({&base, &j}, nullptr);
    Result<IncrementalEval::Overlay> r =
        inc->EvalOverlay(j, &got, /*materialize=*/true);
    ASSERT_EQ(scratch.ok(), r.ok())
        << ctx << "\nscratch: "
        << (scratch.ok() ? "ok" : scratch.status().message())
        << "\nincremental: " << (r.ok() ? "ok" : r.status().message());
    if (!r.ok()) continue;
    EXPECT_EQ(FactsToString(InstanceFacts(scratch.value())),
              FactsToString(got))
        << ctx;
    if (r->superset_of_base) {
      // The claim behind the monotone short-circuit, checked against the
      // from-scratch oracle: every base output fact survives the union.
      std::vector<Fact> base_out;
      Result<Instance> base_eval = prepared.EvalParts({&base}, nullptr);
      ASSERT_TRUE(base_eval.ok()) << ctx;
      for (const Fact& f : InstanceFacts(base_eval.value())) {
        EXPECT_TRUE(scratch->Contains(f))
            << ctx << "\nsuperset_of_base claimed but " << FactToString(f)
            << " was retracted";
      }
    }
  }
}

TEST(IncrementalEvalTest, RandomStratifiedOverlaysMatchFromScratch) {
  for (unsigned seed = 0; seed < 25; ++seed) {
    std::mt19937 rng(7000 + seed);
    Result<Program> program = Parse(RandomProgram(rng));
    ASSERT_TRUE(program.ok()) << "generator bug, seed " << seed;
    Result<PreparedProgram> prepared = PreparedProgram::Prepare(*program, BytecodeOptions());
    ASSERT_TRUE(prepared.ok()) << "seed " << seed;
    Instance base = RandomBase(rng);
    std::vector<Instance> overlays;
    for (int k = 0; k < 6; ++k) overlays.push_back(RandomOverlay(rng));
    ExpectOverlaysMatch(*prepared, base, overlays,
                        "stratified seed " + std::to_string(seed));
  }
}

// The Q_TC shape: Adom seeding plus negation over a relation every overlay
// grows, so each non-trivial overlay truncates the O stratum to its
// watermark, recomputes it, and must restore the base rows before rolling
// the epoch back. Re-running an earlier overlay afterwards proves the
// restoration was byte-exact.
TEST(IncrementalEvalTest, AdomNegationRecomputeAndRollback) {
  Result<Program> program = Parse(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
      "O(x, y) :- Adom(x), Adom(y), !T(x, y).");
  ASSERT_TRUE(program.ok());
  Result<PreparedProgram> prepared = PreparedProgram::Prepare(*program, BytecodeOptions());
  ASSERT_TRUE(prepared.ok());

  Instance base;
  base.Insert(Fact("E", {V(0), V(1)}));
  base.Insert(Fact("E", {V(1), V(2)}));
  base.Insert(Fact("E", {V(3), V(3)}));

  std::vector<Instance> overlays;
  {
    Instance a;  // connects base vertices: retracts O facts
    a.Insert(Fact("E", {V(2), V(0)}));
    Instance b;  // fresh component only
    b.Insert(Fact("E", {V(100), V(101)}));
    Instance c;  // bridges base to fresh
    c.Insert(Fact("E", {V(2), V(100)}));
    c.Insert(Fact("E", {V(100), V(0)}));
    overlays = {a, b, c, a, b};  // repeats: rollback must be byte-exact
  }
  ExpectOverlaysMatch(*prepared, base, overlays, "adom-negation");

  // The same overlay, asked twice in a row from one evaluator, answers with
  // byte-identical fact streams.
  std::unique_ptr<IncrementalEval> inc = prepared->BeginIncremental(base);
  ASSERT_TRUE(inc->supported());
  std::vector<Fact> first, second;
  ASSERT_TRUE(inc->EvalOverlay(overlays[0], &first, true).ok());
  ASSERT_TRUE(inc->EvalOverlay(overlays[0], &second, true).ok());
  EXPECT_EQ(FactsToString(first), FactsToString(second));
}

TEST(IncrementalEvalTest, SupersetContractLeavesOutputUntouched) {
  Result<Program> program =
      Parse("T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).");
  ASSERT_TRUE(program.ok());
  Result<PreparedProgram> prepared = PreparedProgram::Prepare(*program, BytecodeOptions());
  ASSERT_TRUE(prepared.ok());
  Instance base;
  base.Insert(Fact("E", {V(0), V(1)}));
  std::unique_ptr<IncrementalEval> inc = prepared->BeginIncremental(base);
  ASSERT_TRUE(inc->supported());

  Instance j;
  j.Insert(Fact("E", {V(100), V(101)}));
  const std::vector<Fact> sentinel = {Fact("E", {V(9), V(9)})};
  std::vector<Fact> out = sentinel;
  Result<IncrementalEval::Overlay> r =
      inc->EvalOverlay(j, &out, /*materialize=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->superset_of_base);  // TC is monotone
  EXPECT_FALSE(r->fell_back);
  EXPECT_EQ(FactsToString(out), FactsToString(sentinel))
      << "superset short-circuit must not touch out_facts";

  // materialize=true forces the facts out even for a monotone overlay.
  r = inc->EvalOverlay(j, &out, /*materialize=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->superset_of_base);
  Result<Instance> scratch = prepared->EvalParts({&base, &j}, nullptr);
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(FactsToString(InstanceFacts(scratch.value())),
            FactsToString(out));
}

TEST(IncrementalEvalTest, RetractionClearsSupersetFlag) {
  Result<Program> program =
      Parse("O(x) :- F(x), !Q(x). Q(x) :- E(x, y).");
  ASSERT_TRUE(program.ok());
  Result<PreparedProgram> prepared = PreparedProgram::Prepare(*program, BytecodeOptions());
  ASSERT_TRUE(prepared.ok());
  Instance base;
  base.Insert(Fact("F", {V(0)}));
  std::unique_ptr<IncrementalEval> inc = prepared->BeginIncremental(base);
  ASSERT_TRUE(inc->supported());

  Instance j;
  j.Insert(Fact("E", {V(0), V(7)}));  // derives Q(0), retracting O(0)
  std::vector<Fact> out;
  Result<IncrementalEval::Overlay> r =
      inc->EvalOverlay(j, &out, /*materialize=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->superset_of_base);
  EXPECT_FALSE(std::binary_search(out.begin(), out.end(),
                                  Fact("O", {V(0)})))
      << "O(0) should have been retracted in the union";
}

// Every configuration the delta machinery cannot serve must still answer —
// through the from-scratch route — and say so via supported().
TEST(IncrementalEvalTest, UnsupportedConfigurationsFallBack) {
  const std::string text = "P(x, y) :- E(x, y).";
  Result<Program> program = Parse(text);
  ASSERT_TRUE(program.ok());
  Instance base;
  base.Insert(Fact("E", {V(0), V(1)}));
  Instance j;
  j.Insert(Fact("E", {V(1), V(2)}));

  auto expect_fallback = [&](const PreparedProgram& prepared,
                             const std::string& label) {
    std::unique_ptr<IncrementalEval> inc = prepared.BeginIncremental(base);
    EXPECT_FALSE(inc->supported()) << label;
    std::vector<Fact> got;
    Result<IncrementalEval::Overlay> r =
        inc->EvalOverlay(j, &got, /*materialize=*/true);
    ASSERT_TRUE(r.ok()) << label;
    EXPECT_TRUE(r->fell_back) << label;
    Result<Instance> scratch = prepared.EvalParts({&base, &j}, nullptr);
    ASSERT_TRUE(scratch.ok()) << label;
    EXPECT_EQ(FactsToString(InstanceFacts(scratch.value())),
              FactsToString(got))
        << label;
  };

  {
    EvalOptions tree;
    tree.engine = EvalEngine::kTree;
    Result<PreparedProgram> prepared = PreparedProgram::Prepare(*program, tree);
    ASSERT_TRUE(prepared.ok());
    expect_fallback(*prepared, "tree engine");
  }
  {
    EvalOptions naive;
    naive.semi_naive = false;
    Result<PreparedProgram> prepared =
        PreparedProgram::Prepare(*program, naive);
    ASSERT_TRUE(prepared.ok());
    expect_fallback(*prepared, "naive iteration");
  }
  {
    Result<Program> gamma = Parse("P(x) :- F(x), !P(x).");
    ASSERT_TRUE(gamma.ok());
    Result<PreparedProgram> prepared =
        PreparedProgram::PrepareFixedNegation(*gamma);
    ASSERT_TRUE(prepared.ok());
    std::unique_ptr<IncrementalEval> inc = prepared->BeginIncremental(base);
    EXPECT_FALSE(inc->supported()) << "fixed negation";
  }
  {
    Result<Program> invent = Parse("P(*, x) :- E(x, y).");
    ASSERT_TRUE(invent.ok());
    Result<PreparedProgram> prepared = PreparedProgram::Prepare(
        *invent, EvalOptions{}, /*allow_invention=*/true);
    ASSERT_TRUE(prepared.ok());
    std::unique_ptr<IncrementalEval> inc = prepared->BeginIncremental(base);
    EXPECT_FALSE(inc->supported()) << "ilog invention";
  }
}

// The storage half of the tentpole, probed through the public Database API:
// nested epochs roll back to byte-identical instances, including stores and
// dictionary entries created mid-epoch.
TEST(IncrementalEvalTest, NestedEpochRollbackRestoresDatabase) {
  const uint32_t e = InternName("E");
  const uint32_t f = InternName("F");
  const uint32_t g = InternName("G");
  Database db;
  db.Insert(e, {V(0), V(1)});
  db.Insert(e, {V(1), V(2)});
  db.Insert(f, {V(3)});
  const std::string base = db.ToInstance().ToString();

  db.BeginEpoch();
  db.Insert(e, {V(4), V(5)});     // new rows, new dict values
  db.Insert(g, {V(0), V(1), V(2)});  // store created mid-epoch
  const std::string outer = db.ToInstance().ToString();

  db.BeginEpoch();
  db.Insert(f, {V(6)});
  db.Insert(e, {V(0), V(1)});  // duplicate: must stay after inner rollback
  EXPECT_EQ(db.EpochDepth(), 2u);
  db.RollbackEpoch();
  EXPECT_EQ(db.ToInstance().ToString(), outer);

  db.RollbackEpoch();
  EXPECT_EQ(db.EpochDepth(), 0u);
  EXPECT_EQ(db.ToInstance().ToString(), base);

  // Regression: a ranks cache built during a rolled-back epoch must not
  // survive a regrowth to the same dictionary size with different values —
  // ToInstance would sort rows by the dead epoch's value order.
  db.BeginEpoch();
  db.Insert(e, {V(200), V(201)});
  (void)db.ToInstance();  // builds the ranks cache above the base prefix
  db.RollbackEpoch();
  db.Insert(e, {V(201), V(0)});  // interned in descending value order, so a
  db.Insert(e, {V(200), V(0)});  // stale cache would emit 201 before 200
  Instance want;
  want.Insert(Fact("E", {V(0), V(1)}));
  want.Insert(Fact("E", {V(1), V(2)}));
  want.Insert(Fact("E", {V(200), V(0)}));
  want.Insert(Fact("E", {V(201), V(0)}));
  want.Insert(Fact("F", {V(3)}));
  EXPECT_EQ(db.ToInstance().ToString(), want.ToString());
}

// The reference union check: materialize Q(base ∪ j) through EvalParts and
// merge Q(base)'s sorted facts against it.
Result<std::optional<Fact>> ReferenceFirstMissing(
    const PreparedProgram& prepared, const Instance& base, const Instance& j,
    const std::vector<Fact>& probe) {
  CALM_ASSIGN_OR_RETURN(Instance out, prepared.EvalParts({&base, &j}, nullptr));
  const std::vector<Fact> facts = InstanceFacts(out);
  auto it = facts.begin();
  for (const Fact& f : probe) {
    while (it != facts.end() && *it < f) ++it;
    if (it == facts.end() || !(*it == f)) return std::optional<Fact>(f);
  }
  return std::optional<Fact>();
}

std::string Describe(const Result<std::optional<Fact>>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  return r->has_value() ? FactToString(**r) : "<none>";
}

// The three union-check routes answer every (I, J) of the seeded corpus
// identically: the from-scratch probe (PreparedProgram::FirstMissing), the
// overlay probe (IncrementalEval::FirstMissing) and the EvalParts + merge
// reference — the same first missing fact, or the same error under a small
// max_total_facts. The corpus spans bases on both sides of DatalogQuery's
// route cut-off.
TEST(UnionCheckRoutesTest, ScratchOverlayAndReferenceAgree) {
  size_t small_bases = 0, large_bases = 0, errors = 0, missing = 0;
  for (size_t cap : {size_t{0}, size_t{14}}) {
    for (unsigned seed = 0; seed < 40; ++seed) {
      std::mt19937 rng(9000 + seed);
      Result<Program> program = Parse(RandomProgram(rng));
      ASSERT_TRUE(program.ok()) << "generator bug, seed " << seed;
      EvalOptions options = BytecodeOptions();
      if (cap > 0) options.max_total_facts = cap;
      Result<PreparedProgram> prepared =
          PreparedProgram::Prepare(*program, options);
      Result<PreparedProgram> uncapped =
          PreparedProgram::Prepare(*program, BytecodeOptions());
      ASSERT_TRUE(prepared.ok() && uncapped.ok()) << "seed " << seed;
      Instance base = RandomBase(rng);
      Result<Instance> base_out = uncapped->EvalParts({&base}, nullptr);
      ASSERT_TRUE(base_out.ok()) << "seed " << seed;
      const std::vector<Fact> probe = InstanceFacts(*base_out);
      Result<size_t> rows = uncapped->FixpointRows({&base}, nullptr);
      ASSERT_TRUE(rows.ok());
      ++(*rows > DatalogQuery::kMaxScratchBaseRows ? large_bases
                                                     : small_bases);

      std::unique_ptr<IncrementalEval> inc = prepared->BeginIncremental(base);
      for (int k = 0; k < 8; ++k) {
        Instance j = RandomOverlay(rng);
        const std::string ctx = "cap " + std::to_string(cap) + " seed " +
                                std::to_string(seed) + " overlay " +
                                std::to_string(k) + ": " + j.ToString() +
                                "\nbase: " + base.ToString();
        const std::string want =
            Describe(ReferenceFirstMissing(*prepared, base, j, probe));
        EXPECT_EQ(want,
                  Describe(prepared->FirstMissing({&base, &j}, nullptr, probe)))
            << "from-scratch route, " << ctx;
        EXPECT_EQ(want, Describe(inc->FirstMissing(j, probe)))
            << "overlay route, " << ctx;
        errors += want.rfind("error", 0) == 0;
        missing += want.find('(') != std::string::npos;
      }
    }
  }
  EXPECT_GT(small_bases, 0u);
  EXPECT_GT(large_bases, 0u);
  EXPECT_GT(errors, 0u);
  EXPECT_GT(missing, 0u);
}

// UnionEvaluator parity at the Query layer: the engine-specific evaluators
// (closure matrix for TC/Q_TC, incremental fixpoint for DatalogQuery) must
// report the byte-identical first-retracted fact the overlay route reports,
// pair by pair.
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
        ASSERT_EQ(a->has_value(), b->has_value())
            << q->name() << " seed " << seed << "\ni: " << i.ToString()
            << "\nj: " << j.ToString();
        if (a->has_value()) {
          EXPECT_EQ(FactToString(**a), FactToString(**b))
              << q->name() << " seed " << seed << "\ni: " << i.ToString()
              << "\nj: " << j.ToString();
        }
      }
    }
  }
}

// Restores the process-wide incremental mode on scope exit, so a failing
// assertion cannot leak a pinned mode into later tests.
struct ModeGuard {
  ~ModeGuard() { SetDefaultIncrementalMode(IncrementalMode::kDefault); }
};

// Checker verdicts and counterexample witnesses are byte-identical with the
// incremental path on and off, at every thread count — the whole point of
// the delta machinery is being invisible to the sweeps' results.
TEST(IncrementalCheckerTest, VerdictsIdenticalOnVsOffAcrossThreads) {
  ModeGuard guard;
  const struct {
    const char* name;
    const char* text;  // nullptr = native Q_TC
  } kSpecs[] = {
      {"qtc-datalog",
       "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
       "O(x, y) :- Adom(x), Adom(y), !T(x, y). .output O"},
      {"guarded",
       "O(x) :- F(x), !Q(x). Q(x) :- E(x, y), E(y, x). .output O"},
      {"qtc-native", nullptr},
  };
  monotonicity::ExhaustiveOptions options;
  options.domain_size = 2;
  options.max_facts_i = 2;
  options.fresh_values = 1;
  options.max_facts_j = 2;

  for (const auto& spec : kSpecs) {
    for (auto cls : {monotonicity::MonotonicityClass::kMonotone,
                     monotonicity::MonotonicityClass::kDomainDisjoint}) {
      // verdicts[mode][thread-count index]
      std::vector<std::string> verdicts[2];
      for (int mode = 0; mode < 2; ++mode) {
        SetDefaultIncrementalMode(mode == 0 ? IncrementalMode::kOn
                                            : IncrementalMode::kOff);
        // Queries are built inside the mode loop: DatalogQuery resolves the
        // mode at Prepare time, the native factories at evaluator-creation
        // time.
        std::unique_ptr<Query> native;
        std::optional<DatalogQuery> dq;
        const Query* query = nullptr;
        if (spec.text == nullptr) {
          native = queries::MakeComplementTransitiveClosure();
          query = native.get();
        } else {
          dq = DatalogQuery::FromTextOrDie(spec.text, spec.name);
          query = &*dq;
        }
        for (size_t threads : {1u, 2u, 8u}) {
          options.threads = threads;
          auto r = monotonicity::FindViolation(*query, cls, options);
          ASSERT_TRUE(r.ok()) << spec.name;
          verdicts[mode].push_back(
              r->has_value() ? (*r)->ToString() : "<no violation>");
        }
      }
      for (size_t t = 0; t < verdicts[0].size(); ++t) {
        EXPECT_EQ(verdicts[0][t], verdicts[1][t])
            << spec.name << " class " << monotonicity::MonotonicityClassName(cls)
            << " thread slot " << t
            << ": incremental on and off disagree";
      }
      // Thread counts must not change the verdict either.
      for (int mode = 0; mode < 2; ++mode) {
        for (size_t t = 1; t < verdicts[mode].size(); ++t) {
          EXPECT_EQ(verdicts[mode][0], verdicts[mode][t]) << spec.name;
        }
      }
    }
  }
}

// A sweep whose bases all sit above the route cut-off, so its union checks
// run through IncrementalEval overlays: eight copies of Adom put every
// non-empty I's fixpoint past it. (The empty I has the empty Q(I), whose
// checks are trivially true on any route.) Verdicts and witnesses must
// equal the from-scratch route's, which incremental mode off forces
// everywhere.
TEST(IncrementalCheckerTest, OverlayRouteVerdictsMatchFromScratch) {
  ModeGuard guard;
  std::string text;
  for (int k = 0; k < 8; ++k) {
    text += "C" + std::to_string(k) + "(x) :- Adom(x).\n";
  }
  text +=
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
      "O(x, y) :- Adom(x), Adom(y), !T(x, y). .output O";
  monotonicity::ExhaustiveOptions options;
  options.domain_size = 2;
  options.max_facts_i = 2;
  options.fresh_values = 2;
  options.threads = 1;
  const std::vector<monotonicity::SweepCell> cells = {
      {monotonicity::MonotonicityClass::kMonotone, 1},
      {monotonicity::MonotonicityClass::kMonotone, 2},
      {monotonicity::MonotonicityClass::kDomainDistinct, 2},
      {monotonicity::MonotonicityClass::kDomainDisjoint, 2},
  };
  const bool metrics_were_on = MetricsEnabled();
  SetMetricsEnabled(true);
  Counter& overlays =
      MetricRegistry::Global().GetCounter("calm.eval.incremental.overlays");

  std::vector<std::string> verdicts[2];
  uint64_t overlay_runs[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    SetDefaultIncrementalMode(mode == 0 ? IncrementalMode::kOn
                                        : IncrementalMode::kOff);
    DatalogQuery q = DatalogQuery::FromTextOrDie(text, "adom-copies-qtc");
    for (const Instance& i :
         AllInstances(q.input_schema(), IntDomain(options.domain_size),
                      options.max_facts_i)) {
      if (i.empty()) continue;
      Result<size_t> rows = q.prepared().FixpointRows({&i}, &q.input_schema());
      ASSERT_TRUE(rows.ok());
      ASSERT_GT(*rows, DatalogQuery::kMaxScratchBaseRows) << i.ToString();
    }
    const uint64_t before = overlays.Value();
    auto r = monotonicity::FindViolations(q, cells, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    overlay_runs[mode] = overlays.Value() - before;
    for (const auto& cell : *r) {
      verdicts[mode].push_back(cell.has_value() ? cell->ToString()
                                                : "<no violation>");
    }
  }
  SetMetricsEnabled(metrics_were_on);
  EXPECT_GT(overlay_runs[0], 0u) << "the sweep never took the overlay route";
  EXPECT_EQ(overlay_runs[1], 0u);
  EXPECT_EQ(verdicts[0], verdicts[1]);
}

}  // namespace
}  // namespace calm::datalog
