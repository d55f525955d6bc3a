// The preservation sweeps and the genericity probe against their per-pair
// definitions. FindPreservationViolation memoizes Q(target) by enumeration
// ordinal, evaluates in masked batches and checks each (source, target) pair
// on value indices; ProbeGenericity evaluates all its inputs in one batch.
// The references below do none of that: one Eval per (source, target), a
// std::map enumerator with the homomorphism test at the leaves,
// ApplyValueMap, E over value subsets, and CheckGenericity per
// (sample, permutation). Verdicts, witnesses and error strings must agree
// byte for byte, also under max_total_facts caps, where memoized errors
// must surface at the reference's stop point.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/enumerator.h"
#include "base/instance.h"
#include "base/query.h"
#include "datalog/program.h"
#include "monotonicity/preservation.h"
#include "queries/graph_queries.h"
#include "queries/paper_programs.h"
#include "workload/fuzzer.h"

namespace calm {
namespace {

using datalog::DatalogQuery;
using monotonicity::FindPreservationViolation;
using monotonicity::PreservationClass;
using monotonicity::PreservationOptions;
using monotonicity::PreservationViolation;

// --- References ------------------------------------------------------------

// Every (injective) value map adom(i) -> adom(j), in lexicographic order,
// handed to fn when it is a homomorphism; stops when fn returns false.
bool ForEachMapHomomorphism(
    const Instance& i, const Instance& j, bool injective,
    const std::function<bool(const std::map<Value, Value>&)>& fn) {
  const std::set<Value> si = i.ActiveDomain(), sj = j.ActiveDomain();
  const std::vector<Value> di(si.begin(), si.end()), dj(sj.begin(), sj.end());
  std::map<Value, Value> h;
  std::function<bool(size_t)> rec = [&](size_t k) {
    if (k == di.size()) {
      if (!ApplyValueMap(i, h).IsSubsetOf(j)) return true;
      return fn(h);
    }
    for (Value v : dj) {
      bool used = false;
      for (const auto& [from, to] : h) used = used || to == v;
      if (injective && used) continue;
      h[di[k]] = v;
      const bool go_on = rec(k + 1);
      h.erase(di[k]);
      if (!go_on) return false;
    }
    return true;
  };
  return rec(0);
}

Result<std::optional<PreservationViolation>> ReferenceHomSource(
    const Query& q, const Instance& i, bool injective, size_t domain_size,
    size_t max_facts) {
  std::optional<Result<Instance>> out_i;
  Status error;
  std::optional<PreservationViolation> found;
  ForEachInstance(q.input_schema(), IntDomain(2 * domain_size), max_facts,
                  [&](const Instance& j) {
    if (!out_i.has_value()) out_i = q.Eval(i);
    if (!out_i->ok()) {
      error = out_i->status();
      return false;
    }
    Result<Instance> out_j = q.Eval(j);
    if (!out_j.ok()) {
      error = out_j.status();
      return false;
    }
    ForEachMapHomomorphism(i, j, injective,
                           [&](const std::map<Value, Value>& h) {
      ApplyValueMap(out_i->value(), h).ForEachFact(
          [&](uint32_t rel, const Tuple& t) {
            if (!found.has_value() && !out_j->Contains(Fact(rel, t))) {
              found = PreservationViolation{i, j, Fact(rel, t)};
            }
          });
      return !found.has_value();
    });
    return !found.has_value();
  });
  if (!error.ok()) return error;
  return found;
}

Result<std::optional<PreservationViolation>> ReferenceExtensionSource(
    const Query& q, const Instance& i) {
  Result<Instance> out_i = q.Eval(i);
  if (!out_i.ok()) return out_i.status();
  const std::set<Value> adom_set = i.ActiveDomain();
  const std::vector<Value> adom(adom_set.begin(), adom_set.end());
  for (uint64_t mask = 0; mask < (uint64_t{1} << adom.size()); ++mask) {
    Instance j;
    i.ForEachFact([&](uint32_t rel, const Tuple& t) {
      for (Value v : t) {
        const size_t b = std::find(adom.begin(), adom.end(), v) - adom.begin();
        if (!(mask & (uint64_t{1} << b))) return;
      }
      j.Insert(Fact(rel, t));
    });
    Result<Instance> out_j = q.Eval(j);
    if (!out_j.ok()) return out_j.status();
    for (const Fact& f : out_j->AllFacts()) {
      if (!out_i->Contains(f)) {
        return std::optional<PreservationViolation>(
            PreservationViolation{i, j, f});
      }
    }
  }
  return std::optional<PreservationViolation>();
}

// ProbeGenericity's definition: CheckGenericity per (sample, permutation).
Status ReferenceProbe(const Query& q, size_t domain_size, size_t max_facts) {
  const std::vector<Value> domain = IntDomain(domain_size);
  std::vector<std::map<Value, Value>> perms(domain_size >= 2 ? 4 : 2);
  for (size_t k = 0; k < domain_size; ++k) {
    perms[0][domain[k]] = Value::FromInt((uint64_t{1} << 20) + k);
    perms[1][domain[k]] = Value::FromInt(1000 + k);
    if (domain_size >= 2) perms[2][domain[k]] = domain[domain_size - 1 - k];
  }
  if (domain_size >= 2) {
    perms[3][domain[0]] = domain[1];
    perms[3][domain[1]] = domain[0];
  }
  const std::vector<Instance> space =
      AllInstances(q.input_schema(), domain, max_facts);
  const size_t take = std::min<size_t>(12, space.size());
  if (take == 0) return Status::Ok();
  for (size_t s = 0; s < take; ++s) {
    for (const std::map<Value, Value>& pi : perms) {
      Status st = CheckGenericity(q, space[s * (space.size() / take)], pi);
      if (!st.ok()) return st;
    }
  }
  return Status::Ok();
}

// FindPreservationViolation's definition: the nested loops, serial, over
// the sources a kOff or kAuto sweep visits (orbit representatives when the
// reference probe passes).
Result<std::optional<PreservationViolation>> ReferenceFind(
    const Query& q, PreservationClass cls, size_t domain_size,
    size_t max_facts, SymmetryMode mode) {
  const bool reduce =
      mode == SymmetryMode::kAuto &&
      ReferenceProbe(q, domain_size, std::min<size_t>(max_facts, 2)).ok();
  const std::vector<Value> domain = IntDomain(domain_size);
  const std::vector<Instance> sources =
      reduce ? AllCanonicalInstances(q.input_schema(), domain, max_facts)
             : AllInstances(q.input_schema(), domain, max_facts);
  for (const Instance& i : sources) {
    Result<std::optional<PreservationViolation>> r =
        cls == PreservationClass::kExtensions
            ? ReferenceExtensionSource(q, i)
            : ReferenceHomSource(
                  q, i, cls == PreservationClass::kInjectiveHomomorphisms,
                  domain_size, max_facts);
    if (!r.ok() || r->has_value()) return r;
  }
  return std::optional<PreservationViolation>();
}

std::string Render(const Result<std::optional<PreservationViolation>>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  if (!r->has_value()) return "no violation";
  return r->value().ToString();
}

// --- Corpus ----------------------------------------------------------------

std::unique_ptr<Query> Own(DatalogQuery q) {
  return std::make_unique<DatalogQuery>(std::move(q));
}

// `q` re-created with max_total_facts = cap.
std::unique_ptr<Query> Capped(const DatalogQuery& q, size_t cap) {
  datalog::EvalOptions options;
  options.max_total_facts = cap;
  Result<DatalogQuery> capped =
      DatalogQuery::Create(q.program(), q.name() + "-cap" + std::to_string(cap),
                           q.semantics(), options);
  EXPECT_TRUE(capped.ok()) << capped.status();
  return Own(std::move(capped).value());
}

// Not generic: O(x, y) and O(y, x) for every edge E(x, y) with x < y in
// value order. Its first Hinj violation maps E(0, 1) onto a descending
// edge, so two images go missing in the reverse of Q(I)'s order: the
// reported fact must be the least image, not the image of Q(I)'s first
// missing fact.
std::unique_ptr<Query> MakeAscendingEdges() {
  return std::make_unique<NativeQuery>(
      "ascending-edges", Schema({{"E", 2}}), Schema({{"O", 2}}),
      [](const Instance& in) -> Result<Instance> {
        Instance out;
        for (const Tuple& t : in.TuplesOf(InternName("E"))) {
          if (!(t[0] < t[1])) continue;
          out.Insert(Fact("O", {t[0], t[1]}));
          out.Insert(Fact("O", {t[1], t[0]}));
        }
        return out;
      });
}

// The native star2/TC/Q_TC/clique3/dup2 and ascending-edges, the paper's
// TC, Q_TC and win-move, one fuzzer program per shape, and every Datalog
// one again capped at max_total_facts 6, 14 and 40.
std::vector<std::unique_ptr<Query>> Corpus() {
  std::vector<std::unique_ptr<Query>> out;
  out.push_back(MakeAscendingEdges());
  out.push_back(queries::MakeStarQuery(2));
  out.push_back(queries::MakeTransitiveClosure());
  out.push_back(queries::MakeComplementTransitiveClosure());
  out.push_back(queries::MakeCliqueQuery(3));
  out.push_back(queries::MakeDuplicateQuery(2));
  std::vector<DatalogQuery> programs = {queries::TcProgram(),
                                        queries::ComplementTcProgram(),
                                        queries::WinMoveProgram()};
  for (size_t shape = 0; shape < workload::kProgramShapeCount; ++shape) {
    workload::FuzzerOptions fo;
    fo.seed = 11 + shape;
    fo.shape = static_cast<workload::ProgramShape>(shape);
    const workload::GeneratedProgram gp = workload::GenerateProgram(fo);
    programs.push_back(DatalogQuery::FromTextOrDie(
        gp.text, std::string(workload::ProgramShapeName(fo.shape)),
        gp.semantics));
  }
  for (const DatalogQuery& p : programs) {
    out.push_back(Own(p));
    for (size_t cap : {6, 14, 40}) out.push_back(Capped(p, cap));
  }
  return out;
}

// --- Tests -----------------------------------------------------------------

TEST(PreservationParityTest, SweepsMatchPerPairReference) {
  const std::vector<std::unique_ptr<Query>> corpus = Corpus();
  size_t sweeps = 0, violations = 0, errors = 0;
  for (const std::unique_ptr<Query>& q : corpus) {
    for (PreservationClass cls : {PreservationClass::kHomomorphisms,
                                  PreservationClass::kInjectiveHomomorphisms,
                                  PreservationClass::kExtensions}) {
      for (SymmetryMode mode : {SymmetryMode::kOff, SymmetryMode::kAuto}) {
        const std::string want = Render(ReferenceFind(*q, cls, 2, 2, mode));
        violations += want.rfind("I = ", 0) == 0;
        errors += want.rfind("error", 0) == 0;
        for (size_t threads : {1u, 4u}) {
          PreservationOptions o;
          o.domain_size = 2;
          o.max_facts = 2;
          o.threads = threads;
          o.symmetry = mode;
          EXPECT_EQ(Render(FindPreservationViolation(*q, cls, o)), want)
              << q->name() << " " << monotonicity::PreservationClassName(cls)
              << " threads " << threads << " symmetry "
              << (mode == SymmetryMode::kOff ? "off" : "auto");
          ++sweeps;
        }
      }
    }
  }
  EXPECT_GT(violations, 10u);
  EXPECT_GT(errors, 10u);
  EXPECT_EQ(sweeps, corpus.size() * 12);
}

TEST(PreservationParityTest, ProbeMatchesPerPairReference) {
  const std::vector<std::unique_ptr<Query>> corpus = Corpus();
  size_t failures = 0;
  for (const std::unique_ptr<Query>& q : corpus) {
    for (size_t domain_size : {1u, 2u, 3u}) {
      const Status want = ReferenceProbe(*q, domain_size, 2);
      failures += !want.ok();
      EXPECT_EQ(ProbeGenericity(*q, domain_size, 2).ToString(),
                want.ToString())
          << q->name() << " domain " << domain_size;
    }
  }
  EXPECT_GT(failures, 0u);
}

}  // namespace
}  // namespace calm
