// Replays Theorem 3.1's proof, item by item, with the exact witnesses the
// paper constructs — every separation is demonstrated by a concrete (I, J)
// pair, and every membership by an exhaustive bounded search.

#include <memory>

#include "bench/flags.h"
#include "bench/report.h"
#include "monotonicity/checker.h"
#include "queries/graph_queries.h"
#include "workload/graph_gen.h"

using namespace calm;                // NOLINT
using namespace calm::monotonicity;  // NOLINT

namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

// True iff Q(i) loses a fact when j is added (the separation witness fires).
bool Retracts(const Query& q, const Instance& i, const Instance& j,
              std::string* detail) {
  Result<std::optional<Counterexample>> r = CheckPair(q, i, j);
  if (!r.ok()) {
    *detail = r.status().ToString();
    return false;
  }
  if (r->has_value()) *detail = r->value().ToString();
  return r->has_value();
}

bool NoViolation(const Query& q, MonotonicityClass cls,
                 const ExhaustiveOptions& o, const bench::Flags& flags) {
  Result<std::optional<Counterexample>> r = FindViolation(q, cls, o);
  // A SIGINT/SIGTERM mid-sweep surfaces here: flush artifacts and exit 130;
  // everything this run finished is already durable in --checkpoint_dir.
  bench::ExitIfCancelled(flags);
  return r.ok() && !r->has_value();
}

// Sweep options wired for kill-and-resume: every exhaustive search in this
// bench journals into --checkpoint_dir (when set) and polls the signal flag.
ExhaustiveOptions SweepOptions(const bench::Flags& flags) {
  ExhaustiveOptions o;
  o.checkpoint_dir = flags.checkpoint_dir;
  o.cancel = &bench::CancelFlag();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::ParseFlags(&argc, argv);
  bench::InstallCancelHandlers();
  bench::Report report("Theorem 3.1 — separations, replayed with the paper's witnesses");
  report.EnableJson(flags.json_path);
  std::string detail;
  // Every exhaustive membership search widens its domain by --domain_bump
  // (the CI deep-sweep job passes 1). Memberships are genuine, so a wider
  // bound only costs time — which the symmetry reduction pays for.
  const size_t bump = flags.domain_bump;

  // (1) M ( Mdistinct: SP-Datalog specimen V \ S is in Mdistinct but a
  // non-monotone addition (old value into S) retracts output.
  report.Section("(1) M ( Mdistinct ( Mdisjoint ( C");
  {
    NativeQuery vs("v-minus-s", Schema({{"V", 1}, {"S", 1}}),
                   Schema({{"O", 1}}),
                   [](const Instance& in) -> Result<Instance> {
                     Instance out;
                     for (const Tuple& t : in.TuplesOf(InternName("V"))) {
                       if (in.TuplesOf(InternName("S")).count(t) == 0) {
                         out.Insert(Fact("O", t));
                       }
                     }
                     return out;
                   });
    Instance i{Fact("V", {V(1)})};
    Instance j{Fact("S", {V(1)})};
    report.Check("V\\S not monotone (witness: add S(1))",
                 Retracts(vs, i, j, &detail), detail);
    ExhaustiveOptions o = SweepOptions(flags);
    // domain_size 3 was out of reach for the full sweep (it was clamped to 2
    // before the orbit-representative reduction landed).
    o.domain_size = 3 + bump;
    o.max_facts_i = 3;
    o.fresh_values = 2;
    o.max_facts_j = 3;
    report.Check("V\\S in Mdistinct (exhaustive)",
                 NoViolation(vs, MonotonicityClass::kDomainDistinct, o, flags));

    // Q_TC in Mdisjoint \ Mdistinct: "the addition of domain-distinct
    // subgraphs can create a path E(a,c), E(c,b) where c is a new vertex".
    auto qtc = queries::MakeComplementTransitiveClosure();
    Instance graph{Fact("E", {V(0), V(0)}), Fact("E", {V(1), V(1)})};
    Instance bridge{Fact("E", {V(0), V(2)}), Fact("E", {V(2), V(1)})};
    report.Check("Q_TC loses (0,1) when bridged through fresh c (not Mdistinct)",
                 Retracts(*qtc, graph, bridge, &detail), detail);
    report.Check("Q_TC in Mdisjoint (exhaustive)",
                 NoViolation(*qtc, MonotonicityClass::kDomainDisjoint, o, flags));

    // Mdisjoint ( C: the triangles query killed by a disjoint triangle.
    auto tri = queries::MakeTrianglesUnlessTwoDisjoint();
    report.Check("triangle query retracts on a disjoint triangle (not Mdisjoint)",
                 Retracts(*tri, workload::Cycle(3), workload::Cycle(3, 50),
                          &detail),
                 detail);
  }

  // (2) M = M^i.
  report.Section("(2) M = M^i");
  {
    auto tc = queries::MakeTransitiveClosure();
    for (size_t jmax : {1u, 2u, 3u, 4u}) {
      ExhaustiveOptions o = SweepOptions(flags);
      o.domain_size = 2 + bump;
      o.max_facts_i = 2;
      o.fresh_values = 1;
      o.max_facts_j = jmax;
      report.Check("TC in M^" + std::to_string(jmax),
                   NoViolation(*tc, MonotonicityClass::kMonotone, o, flags));
    }
  }

  // (3) the clique ladder: "J needs to contain a star: one new value is the
  // center and it points at old clique vertices, requiring |J| >= i+1".
  report.Section("(3) Q^{i+2}_clique separates M^i_distinct from M^{i+1}_distinct");
  for (size_t i : {1u, 2u, 3u}) {
    auto q = queries::MakeCliqueQuery(i + 2);
    // I = an (i+1)-clique; J = a fresh center pointing at all of it.
    Instance clique = workload::Clique(i + 1);
    Instance star;
    for (size_t s = 0; s < i + 1; ++s) {
      star.Insert(Fact("E", {V(1000), V(s)}));
    }
    report.Check("i=" + std::to_string(i) + ": fresh center + " +
                     std::to_string(i + 1) + " edges kills the output",
                 IsDomainDistinctFrom(star, clique) &&
                     Retracts(*q, clique, star, &detail),
                 detail);
    ExhaustiveOptions o = SweepOptions(flags);
    o.domain_size = i + 2 + bump;
    o.max_facts_i = i <= 1 ? (i + 1) * i + 1 : 3;  // keep the search small
    o.fresh_values = 1;
    o.max_facts_j = i;
    report.Check("i=" + std::to_string(i) + ": no violation with |J| <= i",
                 NoViolation(*q, MonotonicityClass::kDomainDistinct, o, flags));
  }

  // (4) the star ladder: "i+1 domain-disjoint edges suffice to create an
  // entirely new star with i+1 spokes".
  report.Section("(4) Q^{i+1}_star separates M^i_disjoint from M^{i+1}_disjoint");
  for (size_t i : {1u, 2u, 3u}) {
    auto q = queries::MakeStarQuery(i + 1);
    Instance input{Fact("E", {V(0), V(1)})};
    Instance fresh_star = workload::Star(i + 1, /*base=*/1000);
    report.Check("i=" + std::to_string(i) + ": " + std::to_string(i + 1) +
                     " disjoint edges build a fresh star",
                 IsDomainDisjointFrom(fresh_star, input) &&
                     Retracts(*q, input, fresh_star, &detail),
                 detail);
    ExhaustiveOptions o = SweepOptions(flags);
    o.domain_size = 2 + bump;
    o.max_facts_i = 2;
    o.fresh_values = i + 1;
    o.max_facts_j = i;
    report.Check("i=" + std::to_string(i) + ": no violation with |J| <= i",
                 NoViolation(*q, MonotonicityClass::kDomainDisjoint, o, flags));
  }

  // (5) Q^{i+1}_clique in M^i_disjoint but not M^i_distinct.
  report.Section("(5) M^i_distinct ( M^i_disjoint");
  {
    auto q = queries::MakeCliqueQuery(3);  // i = 2
    Instance edge{Fact("E", {V(0), V(1)})};
    Instance extend{Fact("E", {V(1000), V(0)}), Fact("E", {V(1000), V(1)})};
    report.Check("Q_clique_3 not in M^2_distinct",
                 Retracts(*q, edge, extend, &detail), detail);
    ExhaustiveOptions o = SweepOptions(flags);
    o.domain_size = 3 + bump;
    o.max_facts_i = 3;
    o.fresh_values = 2;
    o.max_facts_j = 2;
    report.Check("Q_clique_3 in M^2_disjoint",
                 NoViolation(*q, MonotonicityClass::kDomainDisjoint, o, flags));
  }

  // (6) Q^{j+1}_star in M^j_disjoint \ M^i_distinct: "we can increase the
  // number of spokes by adding one additional edge containing the old
  // central vertex and one new value".
  report.Section("(6) M^j_disjoint !<= M^i_distinct");
  for (size_t j : {1u, 2u}) {
    auto q = queries::MakeStarQuery(j + 1);
    Instance star = workload::Star(j);
    Instance extra{Fact("E", {V(0), V(1000)})};
    report.Check("j=" + std::to_string(j) +
                     ": one distinct edge extends the old star",
                 IsDomainDistinctFrom(extra, star) &&
                     Retracts(*q, star, extra, &detail),
                 detail);
  }

  // (7) Q^j_duplicate in M^i_distinct (i < j) \ M^j_disjoint.
  report.Section("(7) M^i_distinct !<= M^j_disjoint (schema grows with j)");
  for (size_t j : {2u, 3u}) {
    auto q = queries::MakeDuplicateQuery(j);
    Instance i_inst{Fact("R1", {V(0), V(1)})};
    Instance dup;
    for (size_t r = 1; r <= j; ++r) {
      dup.Insert(Fact("R" + std::to_string(r), {V(1000), V(1001)}));
    }
    report.Check("j=" + std::to_string(j) +
                     ": j disjoint facts replicate a fresh tuple",
                 IsDomainDisjointFrom(dup, i_inst) &&
                     Retracts(*q, i_inst, dup, &detail),
                 detail);
    ExhaustiveOptions o = SweepOptions(flags);
    o.domain_size = 2 + bump;
    o.max_facts_i = 2;
    o.fresh_values = 2;
    o.max_facts_j = j - 1;
    report.Check("j=" + std::to_string(j) + ": in M^" + std::to_string(j - 1) +
                     "_distinct (exhaustive)",
                 NoViolation(*q, MonotonicityClass::kDomainDistinct, o, flags));
  }

  return report.Finish(bench::WriteObservability(flags));
}
