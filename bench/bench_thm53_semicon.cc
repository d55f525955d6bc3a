// Reproduces Section 5.1: semicon-Datalog¬ <= Mdisjoint (Theorem 5.3),
// Lemma 5.2 (con-Datalog¬ distributes over components), Example 5.1, and
// the fragment landscape SP-Datalog ( semicon-Datalog¬, SP !<= con,
// con ( semicon.

#include "bench/flags.h"
#include "bench/report.h"
#include "datalog/fragment.h"
#include "datalog/parser.h"
#include "monotonicity/checker.h"
#include "monotonicity/components_property.h"
#include "queries/paper_programs.h"
#include "workload/graph_gen.h"

using namespace calm;                // NOLINT
using namespace calm::monotonicity;  // NOLINT
using calm::datalog::DatalogQuery;

namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

bool NoDisjointViolation(const Query& q) {
  ExhaustiveOptions o;
  o.domain_size = 2;
  o.max_facts_i = 2;
  o.fresh_values = 3;
  o.max_facts_j = 3;
  Result<std::optional<Counterexample>> r =
      FindViolation(q, MonotonicityClass::kDomainDisjoint, o);
  if (!r.ok() || r->has_value()) return false;
  RandomOptions ro;
  ro.trials = 60;
  Result<std::optional<Counterexample>> rr =
      FindViolationRandom(q, MonotonicityClass::kDomainDisjoint, ro);
  return rr.ok() && !rr->has_value();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::ParseFlags(&argc, argv);
  bench::Report report(
      "Theorem 5.3 / Lemma 5.2 / Example 5.1 — semicon-Datalog¬ and Mdisjoint");
  report.EnableJson(flags.json_path);

  report.Section("fragment landscape (Section 5.1)");
  {
    // Q_duplicate's program has a *disconnected* rule (Some(z) :- Dup(x,y),
    // Adom(z)) whose head is negated above it — no stratification puts it
    // last, so the program is not semicon. Consistent with Thm 5.3, since
    // the query is outside Mdisjoint.
    datalog::FragmentInfo dup_frag = queries::DuplicateProgram(2).fragment();
    report.Check("Q_duplicate program is stratifiable but NOT semicon",
                 dup_frag.stratifiable && !dup_frag.semi_connected);

    DatalogQuery p1 = queries::Example51P1();
    report.Check("P1 is con-Datalog¬ (all rules connected, stratifiable)",
                 p1.fragment().connected_stratified);
    report.Check("P1 is not semi-positive",
                 !p1.fragment().semi_positive);

    DatalogQuery p2 = queries::Example51P2();
    report.Check("P2 is stratifiable but NOT semicon-Datalog¬",
                 p2.fragment().stratifiable && !p2.fragment().semi_connected);

    // SP !<= con: a semi-positive program with a disconnected rule.
    datalog::Program sp_disc = datalog::ParseOrDie(
        ".output O\nO(x, u) :- A(x), B(u), !C(x).");
    Result<DatalogQuery> spq = DatalogQuery::Create(sp_disc, "sp-disconnected");
    report.Check("SP-Datalog program with a disconnected rule: SP but not con",
                 spq.ok() && spq->fragment().semi_positive &&
                     !spq->fragment().connected_stratified &&
                     spq->fragment().semi_connected);
  }

  report.Section("Theorem 5.3: semicon programs stay in Mdisjoint");
  {
    DatalogQuery qtc = queries::ComplementTcProgram();
    report.Check("Q_TC (semicon) has no Mdisjoint violation",
                 qtc.fragment().semi_connected && NoDisjointViolation(qtc));
    DatalogQuery p1 = queries::Example51P1();
    report.Check("P1 (con) has no Mdisjoint violation",
                 NoDisjointViolation(p1));
    // Converse sanity: the non-semicon Q_duplicate program violates
    // Mdisjoint exactly as the paper's M^j_disjoint witness predicts —
    // Theorem 5.3's hypothesis is necessary here.
    DatalogQuery dup = queries::DuplicateProgram(2);
    Instance i{Fact("R1", {V(0), V(1)})};
    Instance j{Fact("R1", {V(50), V(51)}), Fact("R2", {V(50), V(51)})};
    Result<std::optional<Counterexample>> r = CheckPair(dup, i, j);
    report.Check("non-semicon Q_duplicate program violates Mdisjoint",
                 IsDomainDisjointFrom(j, i) && r.ok() && r->has_value());
  }

  report.Section("Lemma 5.2: con-Datalog¬ distributes over components");
  {
    DatalogQuery p1 = queries::Example51P1();
    ComponentsCheckOptions o;
    o.trials = 40;
    Result<std::optional<ComponentsViolation>> r =
        FindComponentsViolationRandom(p1, o);
    report.Check("P1 distributes over components (40 random multi-component inputs)",
                 r.ok() && !r->has_value());

    DatalogQuery tc = queries::TcProgram();
    Result<std::optional<ComponentsViolation>> rt =
        FindComponentsViolationRandom(tc, o);
    report.Check("TC distributes over components", rt.ok() && !rt->has_value());

    // Q_TC (semicon, disconnected last stratum) does NOT distribute.
    DatalogQuery qtc = queries::ComplementTcProgram();
    Instance two{Fact("E", {V(0), V(1)}), Fact("E", {V(50), V(51)})};
    Result<std::optional<ComponentsViolation>> rq =
        CheckDistributesOverComponents(qtc, two);
    report.Check("Q_TC does not distribute over components",
                 rq.ok() && rq->has_value());
  }

  report.Section("Example 5.1 exactly as printed");
  {
    DatalogQuery p1 = queries::Example51P1();
    // "P1({E(a,b)}) != {}":
    Instance eab{Fact("E", {V(0), V(1)})};
    Result<Instance> out1 = p1.Eval(eab);
    report.Check("P1({E(a,b)}) is nonempty", out1.ok() && !out1->empty());
    // "... while P1({E(a,b)} u {E(b,c), E(c,a)}) = {}":
    Instance tri = workload::Cycle(3);
    Result<Instance> out2 = p1.Eval(tri);
    report.Check("P1 on the completed triangle is empty",
                 out2.ok() && out2->empty());
    // Hence P1 not in Mdistinct:
    Instance j{Fact("E", {V(1), V(2)}), Fact("E", {V(2), V(0)})};
    Result<std::optional<Counterexample>> r = CheckPair(p1, eab, j);
    report.Check("P1 not in Mdistinct (the two added edges are domain distinct)",
                 IsDomainDistinctFrom(j, eab) && r.ok() && r->has_value());

    DatalogQuery p2 = queries::Example51P2();
    Instance a = workload::Cycle(3);
    Instance b = workload::Cycle(3, /*base=*/50);
    Result<std::optional<Counterexample>> rp2 =
        CheckPair(p2, a, b);
    report.Check("P2 not in Mdisjoint (two disjoint triangles)",
                 rp2.ok() && rp2->has_value());
  }

  return report.Finish(bench::WriteObservability(flags));
}
