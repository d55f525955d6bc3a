// Randomized differential harness: the bytecode engine against the
// reference evaluator (tests/reference_eval.h; DESIGN.md "One engine, one
// reference oracle"), which runs naive iteration over Instances straight
// from the AST and shares only Analyze and Stratify with production.
// Programs and instances come from fixed seeds, so every run checks the
// same corpus. Outputs and ok/error outcomes must agree — ILOG outputs after
// renaming every invented value to its Skolem term — and so must checker
// verdicts: a DatalogQuery, whose union checks run as world-masked batches,
// against the reference wrapped as a NativeQuery, whose union checks
// re-evaluate one J at a time.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "base/instance.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "monotonicity/checker.h"
#include "queries/paper_programs.h"
#include "reference_eval.h"

namespace calm::datalog {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

// The fixed vocabulary: stratum 0 is edb, higher strata are idb. Negated
// body atoms only reference strictly lower strata (except in the
// fixed-negation variant), so generated programs are always stratifiable.
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

size_t Rand(std::mt19937& rng, size_t bound) {
  return std::uniform_int_distribution<size_t>(0, bound - 1)(rng);
}

bool Chance(std::mt19937& rng, double p) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
}

// One random safe rule for head relation `head`. Head, negation, and
// inequality arguments only use variables bound by a positive body atom.
// Inequalities compare two variables, or a variable and a constant on
// either side, so ExpandRow and EmitRow test both shapes.
// `max_neg_stratum` bounds the strata negated atoms may reference
// (kRels[head].stratum for the fixed-negation corpus, one below otherwise).
std::string RandomRule(std::mt19937& rng, size_t head, size_t max_neg_stratum,
                       bool invent) {
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
  if (Chance(rng, 0.4)) {
    size_t rel = Rand(rng, kNumRels);
    while (kRels[rel].stratum > max_neg_stratum) rel = Rand(rng, kNumRels);
    body += ", !";
    body += kRels[rel].name;
    body += '(';
    for (uint32_t i = 0; i < kRels[rel].arity; ++i) {
      if (i > 0) body += ", ";
      body += bound_or_const();
    }
    body += ')';
  }
  if (bound.size() >= 2 && Chance(rng, 0.3)) {
    body += ", " + bound[Rand(rng, bound.size())] + " != " +
            bound[Rand(rng, bound.size())];
  }
  if (!bound.empty() && Chance(rng, 0.3)) {
    const std::string var = bound[Rand(rng, bound.size())];
    const std::string c = std::to_string(Rand(rng, 5));
    body += ", " + (Chance(rng, 0.5) ? var + " != " + c : c + " != " + var);
  }
  std::string rule = kRels[head].name;
  rule += '(';
  for (uint32_t i = 0; i < kRels[head].arity; ++i) {
    if (i > 0) rule += ", ";
    if (invent && i == 0) {
      rule += '*';
    } else {
      rule += bound_or_const();
    }
  }
  rule += ") :- " + body + ".";
  return rule;
}

// `max_neg_stratum_delta` = 1 keeps negation strictly below the head's
// stratum (stratifiable); 0 allows same-stratum negation (only valid for
// the fixed-negation evaluator). `invention` marks the top-stratum binary
// relation's rules as inventing their first position (ILOG).
std::string RandomProgram(std::mt19937& rng, size_t max_neg_stratum_delta,
                          bool invention) {
  std::string text;
  for (size_t rel = 0; rel < kNumRels; ++rel) {
    if (kRels[rel].stratum == 0) continue;
    const size_t nrules = 1 + Rand(rng, 3);
    const size_t neg_bound =
        kRels[rel].stratum >= max_neg_stratum_delta
            ? kRels[rel].stratum - max_neg_stratum_delta
            : 0;
    for (size_t r = 0; r < nrules; ++r) {
      const bool invent =
          invention && kRels[rel].stratum == 2 && kRels[rel].arity == 2;
      text += RandomRule(rng, rel, neg_bound, invent);
      text += '\n';
    }
  }
  return text;
}

// Small instances hold at most 11 facts; large ones 24 to 48, so that
// semi-naive delta scans start well inside a relation and scans run over
// long row ranges.
Instance RandomInstance(std::mt19937& rng, bool large) {
  Instance in;
  const size_t nfacts = large ? 24 + Rand(rng, 25) : Rand(rng, 12);
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

enum class Mode { kStratified, kIlog, kFixedNegation };

// `out`'s facts, sorted, duplicates kept, with every invented value written
// as its Skolem term f_R(args) — read off the fact R(v, args) that invented
// v, for each relation R in `inventing`. Two values standing for one term
// render as two equal lines; one value claimed by two terms renders as a
// conflict line instead.
std::vector<std::string> SkolemRendering(const Instance& out,
                                         const std::set<uint32_t>& inventing) {
  std::map<Value, Fact> term;  // invented value -> the fact inventing it
  for (uint32_t rel : inventing) {
    for (const Tuple& t : out.TuplesOf(rel)) {
      const Fact f(rel, Tuple(t.begin() + 1, t.end()));
      auto [it, fresh] = term.emplace(t[0], f);
      if (!fresh && !(it->second == f)) {
        return {"conflict: " + ValueToString(t[0]) + " is " +
                FactToString(it->second) + " and " + FactToString(f)};
      }
    }
  }
  std::function<std::string(Value, size_t)> render = [&](Value v,
                                                         size_t depth) {
    auto it = term.find(v);
    if (it == term.end()) return ValueToString(v);
    if (depth > term.size()) return std::string("<cycle>");
    std::string s = "f_" + NameOf(it->second.relation) + "(";
    for (size_t i = 0; i < it->second.args.size(); ++i) {
      s += (i > 0 ? ", " : "") + render(it->second.args[i], depth + 1);
    }
    return s + ")";
  };
  std::vector<std::string> facts;
  out.ForEachFact([&](uint32_t rel, const Tuple& t) {
    std::string s = NameOf(rel) + "(";
    for (size_t i = 0; i < t.size(); ++i) {
      s += (i > 0 ? ", " : "") + render(t[i], 0);
    }
    facts.push_back(s + ")");
  });
  std::sort(facts.begin(), facts.end());
  return facts;
}

// Evaluates one (program, instance) on the engine and on the reference and
// requires the same ok/error outcome and, on success, the same facts up to
// the naming of invented values.
void ExpectMatchesReference(const std::string& text, const Instance& input,
                            Mode mode, const std::string& label) {
  Result<Program> program = Parse(text);
  ASSERT_TRUE(program.ok()) << label << "\ngenerator bug:\n" << text;
  auto engine = [&]() -> Result<Instance> {
    switch (mode) {
      case Mode::kIlog:
        return EvaluateIlog(*program, input);
      case Mode::kFixedNegation:
        return EvaluateWithFixedNegation(*program, input, input);
      case Mode::kStratified:
        break;
    }
    return Evaluate(*program, input);
  };
  auto ref = [&]() -> Result<Instance> {
    switch (mode) {
      case Mode::kIlog:
        return reference::Eval(*program, input, reference::kDefaultMaxFacts,
                               /*allow_invention=*/true);
      case Mode::kFixedNegation:
        return reference::Gamma(*program, input, input);
      case Mode::kStratified:
        break;
    }
    return reference::Eval(*program, input);
  };
  const Result<Instance> got = engine();
  const Result<Instance> want = ref();
  const std::string ctx =
      label + "\nprogram:\n" + text + "input: " + input.ToString();
  ASSERT_EQ(got.ok(), want.ok())
      << ctx << "\nengine: " << got.status().ToString()
      << "\nreference: " << want.status().ToString();
  if (!got.ok()) return;
  std::set<uint32_t> inventing;
  for (const Rule& r : program->rules) {
    if (r.head.invents) inventing.insert(r.head.relation);
  }
  EXPECT_EQ(SkolemRendering(*got, inventing),
            SkolemRendering(*want, inventing))
      << ctx;
}

TEST(EngineDiffTest, StratifiedRandomPrograms) {
  for (unsigned seed = 0; seed < 60; ++seed) {
    std::mt19937 rng(1000 + seed);
    std::string text = RandomProgram(rng, /*max_neg_stratum_delta=*/1,
                                     /*invention=*/false);
    for (unsigned i = 0; i < 2; ++i) {
      Instance input = RandomInstance(rng, /*large=*/i == 1);
      ExpectMatchesReference(text, input, Mode::kStratified,
                         "stratified seed " + std::to_string(seed));
    }
  }
}

TEST(EngineDiffTest, IlogInventionPrograms) {
  for (unsigned seed = 0; seed < 30; ++seed) {
    std::mt19937 rng(2000 + seed);
    std::string text = RandomProgram(rng, /*max_neg_stratum_delta=*/1,
                                     /*invention=*/true);
    for (unsigned i = 0; i < 2; ++i) {
      Instance input = RandomInstance(rng, /*large=*/i == 1);
      ExpectMatchesReference(text, input, Mode::kIlog,
                         "ilog seed " + std::to_string(seed));
    }
  }
}

TEST(EngineDiffTest, FixedNegationPrograms) {
  // Same-stratum negation allowed: exercises the Gamma-operator evaluator
  // (the well-founded alternation's inner loop) on unstratifiable shapes.
  for (unsigned seed = 0; seed < 30; ++seed) {
    std::mt19937 rng(3000 + seed);
    std::string text = RandomProgram(rng, /*max_neg_stratum_delta=*/0,
                                     /*invention=*/false);
    for (unsigned i = 0; i < 2; ++i) {
      Instance input = RandomInstance(rng, /*large=*/i == 1);
      ExpectMatchesReference(text, input, Mode::kFixedNegation,
                         "fixed-negation seed " + std::to_string(seed));
    }
  }
}

// Checker verdicts: FindViolation drives full query evaluations — Q(I)
// through EvalParts, the union checks through masked batches — so identical
// counterexamples (the whole verdict, not just existence) pin the engine's
// answers end to end against the reference's one-J-at-a-time overlay route.
TEST(EngineDiffTest, CheckerVerdictsMatch) {
  const struct {
    const char* name;
    const char* text;
    DatalogQuery::Semantics semantics;
  } kQueries[] = {
      {"tc", "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T",
       DatalogQuery::Semantics::kStratified},
      {"qtc",
       "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
       "O(x, y) :- Adom(x), Adom(y), !T(x, y). .output O",
       DatalogQuery::Semantics::kStratified},
      {"guarded",
       "O(x) :- F(x), !Q(x). Q(x) :- E(x, y), E(y, x). .output O",
       DatalogQuery::Semantics::kStratified},
  };
  std::vector<DatalogQuery> queries;
  for (const auto& q : kQueries) {
    queries.push_back(DatalogQuery::FromTextOrDie(q.text, q.name, q.semantics));
  }
  queries.push_back(queries::WinMoveProgram());
  monotonicity::ExhaustiveOptions options;
  options.domain_size = 2;
  options.max_facts_i = 2;
  options.fresh_values = 1;
  options.max_facts_j = 2;
  for (const DatalogQuery& q : queries) {
    Result<NativeQuery> ref = reference::MakeQuery(
        q.program(), q.name(),
        q.semantics() == DatalogQuery::Semantics::kWellFounded);
    ASSERT_TRUE(ref.ok()) << q.name() << ": " << ref.status();
    for (auto cls : {monotonicity::MonotonicityClass::kMonotone,
                     monotonicity::MonotonicityClass::kDomainDisjoint}) {
      auto a = monotonicity::FindViolation(q, cls, options);
      auto b = monotonicity::FindViolation(*ref, cls, options);
      ASSERT_TRUE(a.ok()) << q.name() << ": " << a.status();
      ASSERT_TRUE(b.ok()) << q.name() << ": " << b.status();
      ASSERT_EQ(a->has_value(), b->has_value()) << q.name();
      if (a->has_value()) {
        EXPECT_EQ((*a)->ToString(), (*b)->ToString()) << q.name();
      }
    }
  }
}

}  // namespace
}  // namespace calm::datalog
