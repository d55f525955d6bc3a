// Reproduces the Section 5.2 landscape (Theorem 5.4 direction we can test
// mechanically): weakly safe ILOG¬ programs — value invention with
// invention-free outputs — and the semi-connected wILOG¬ fragment staying
// within Mdisjoint on bounded checks. Also re-derives Cabibbo-style facts
// the figure cites: SP-wILOG programs stay in Mdistinct (= E) on bounded
// checks, and wILOG(!=) programs stay in M.

#include "bench/flags.h"
#include "bench/report.h"
#include "datalog/ilog.h"
#include "datalog/parser.h"
#include "monotonicity/checker.h"
#include "workload/graph_gen.h"

using namespace calm;                // NOLINT
using namespace calm::monotonicity;  // NOLINT
using calm::datalog::IlogQuery;

namespace {

bool NoViolation(const Query& q, MonotonicityClass cls) {
  ExhaustiveOptions o;
  o.domain_size = 2;
  o.max_facts_i = 2;
  o.fresh_values = 2;
  o.max_facts_j = 2;
  Result<std::optional<Counterexample>> r = FindViolation(q, cls, o);
  if (!r.ok() || r->has_value()) return false;
  RandomOptions ro;
  ro.trials = 40;
  Result<std::optional<Counterexample>> rr = FindViolationRandom(q, cls, ro);
  return rr.ok() && !rr->has_value();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::ParseFlags(&argc, argv);
  bench::Report report("Theorem 5.4 / Section 5.2 — wILOG¬ fragments");
  report.EnableJson(flags.json_path);

  report.Section("weak safety analysis");
  {
    Result<datalog::Program> leaky = datalog::Parse(
        ".output Leak\nN(*, x) :- E(x, y).\nLeak(k) :- N(k, x).");
    report.Check("leaky program parses", leaky.ok());
    report.Check("leaky program rejected as not weakly safe",
                 !IlogQuery::Create(leaky.value(), "leak").ok());
    Result<datalog::Program> safe = datalog::Parse(
        ".output O\nN(*, x) :- E(x, y).\nO(x) :- N(k, x).");
    report.Check("projection of safe positions accepted",
                 IlogQuery::Create(safe.value(), "safe").ok());
  }

  report.Section("wILOG(!=) (positive + invention) stays in M");
  {
    IlogQuery q = IlogQuery::FromTextOrDie(
        ".output O\n"
        "G(*, x) :- E(x, y).\n"
        "Pair(k, y) :- G(k, x), E(x, y).\n"
        "O(y, z) :- Pair(k, y), Pair(k, z), y != z.\n",
        "same-source-pairs");
    report.Check("same-source-pairs in M",
                 NoViolation(q, MonotonicityClass::kMonotone));
    report.Check("... hence in Mdistinct and Mdisjoint",
                 NoViolation(q, MonotonicityClass::kDomainDistinct) &&
                     NoViolation(q, MonotonicityClass::kDomainDisjoint));
  }

  report.Section("SP-wILOG (edb negation + invention) stays in Mdistinct");
  {
    IlogQuery q = IlogQuery::FromTextOrDie(
        ".output O\n"
        "G(*, x) :- E(x, y), !Blocked(x).\n"
        "O(x) :- G(k, x).\n",
        "unblocked-sources");
    report.Check("unblocked-sources in Mdistinct",
                 NoViolation(q, MonotonicityClass::kDomainDistinct));
    // ... but not in M: blocking an existing source retracts it.
    Instance i{Fact("E", {Value::FromInt(0), Value::FromInt(1)})};
    Instance j{Fact("Blocked", {Value::FromInt(0)})};
    Result<std::optional<Counterexample>> r = CheckPair(q, i, j);
    report.Check("unblocked-sources not in M", r.ok() && r->has_value());
  }

  report.Section("semi-connected wILOG¬ stays in Mdisjoint (Theorem 5.4)");
  {
    IlogQuery q = IlogQuery::FromTextOrDie(
        ".output O\n"
        "G(*, x) :- E(x, y).\n"
        "Mark(x) :- G(k, x).\n"
        "O(x) :- Adom(x), !Mark(x).\n",
        "non-sources");
    report.Check("non-sources is semi-connected wILOG¬",
                 q.fragment().semi_connected);
    report.Check("non-sources in Mdisjoint",
                 NoViolation(q, MonotonicityClass::kDomainDisjoint));
    // ... and properly outside Mdistinct:
    Instance i{Fact("E", {Value::FromInt(0), Value::FromInt(1)})};
    Instance j{Fact("E", {Value::FromInt(1), Value::FromInt(9)})};
    Result<std::optional<Counterexample>> r = CheckPair(q, i, j);
    report.Check("non-sources not in Mdistinct", r.ok() && r->has_value());
  }

  report.Section("invention semantics: hash-consed Skolem terms");
  {
    datalog::Program p = datalog::ParseOrDie("N(*, x) :- E(x, y).");
    Instance in = workload::Star(4);  // center 0, spokes 1..4
    size_t invented = 0;
    Result<Instance> out =
        datalog::EvaluateIlog(p, in, {}, nullptr, &invented);
    report.Check("one invented value per distinct source",
                 out.ok() && invented == 1);

    datalog::Program diverging = datalog::ParseOrDie(
        "N(*, x) :- S(x).\nN(*, k) :- N(k, x).");
    datalog::EvalOptions opts;
    opts.max_total_facts = 500;
    Result<Instance> d = datalog::EvaluateIlog(
        diverging, Instance{Fact("S", {Value::FromInt(1)})}, opts);
    report.Check("divergent invention detected as 'output undefined'",
                 !d.ok() && d.status().code() == StatusCode::kResourceExhausted);
  }

  return report.Finish(bench::WriteObservability(flags));
}
