// Reproduces Figure 1: the monotonicity hierarchy
//
//     M ( Mdistinct ( Mdisjoint ( C,     M = M^i,
//     and the bounded ladders M^i_distinct / M^i_disjoint with their
//     (non-)inclusions.
//
// Every query class membership is decided by the bounded checkers of
// monotonicity/checker.h: "in" = exhaustive search over the stated space
// found no violation; "not in" = a concrete counterexample was found (these
// match the paper's proof witnesses and are printed).

#include <memory>
#include <vector>

#include "bench/flags.h"
#include "bench/report.h"
#include "monotonicity/checker.h"
#include "monotonicity/ladder.h"
#include "queries/graph_queries.h"
#include "workload/graph_gen.h"

using namespace calm;                // NOLINT
using namespace calm::monotonicity;  // NOLINT

namespace {

struct Verdict {
  bool decided = false;
  bool in = false;
  std::string detail;
};

Verdict Member(const Query& q, MonotonicityClass cls,
               const ExhaustiveOptions& opts) {
  Result<std::optional<Counterexample>> r = FindViolation(q, cls, opts);
  Verdict v;
  if (!r.ok()) {
    v.detail = r.status().ToString();
    return v;
  }
  v.decided = true;
  v.in = !r->has_value();
  if (r->has_value()) v.detail = r->value().ToString();
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::ParseFlags(&argc, argv);
  bench::Report report(
      "Figure 1 — the monotonicity hierarchy (Ameloot et al., PODS 2014)");
  report.EnableJson(flags.json_path);

  ExhaustiveOptions base;
  base.domain_size = 2;
  base.max_facts_i = 2;
  base.fresh_values = 2;
  base.max_facts_j = 2;

  // ------------------------------------------------------------------
  report.Section("membership matrix (bounded exhaustive checks)");
  struct Specimen {
    std::unique_ptr<Query> q;
    bool expect_m, expect_distinct, expect_disjoint;
    ExhaustiveOptions opts;
  };
  std::vector<Specimen> specimens;
  specimens.push_back({queries::MakeTransitiveClosure(), true, true, true, base});
  specimens.push_back({queries::MakeTwoHopJoin(), true, true, true, base});
  {
    ExhaustiveOptions o = base;
    o.fresh_values = 1;
    specimens.push_back(
        {queries::MakeComplementTransitiveClosure(), false, false, true, o});
  }
  specimens.push_back({queries::MakeWinMove(), false, false, true, base});

  report.Line("  %-12s %-6s %-11s %-11s", "query", "M", "Mdistinct",
              "Mdisjoint");
  for (const Specimen& s : specimens) {
    Verdict m = Member(*s.q, MonotonicityClass::kMonotone, s.opts);
    Verdict di = Member(*s.q, MonotonicityClass::kDomainDistinct, s.opts);
    Verdict dj = Member(*s.q, MonotonicityClass::kDomainDisjoint, s.opts);
    report.Line("  %-12s %-6s %-11s %-11s", s.q->name().c_str(),
                m.in ? "yes" : "no", di.in ? "yes" : "no",
                dj.in ? "yes" : "no");
    report.Check(s.q->name() + " matches the paper's placement",
                 m.decided && di.decided && dj.decided &&
                     m.in == s.expect_m && di.in == s.expect_distinct &&
                     dj.in == s.expect_disjoint);
  }

  // ------------------------------------------------------------------
  report.Section("the bounded ladders, rendered (Figure 1's left columns)");
  {
    struct LadderCase {
      const char* label;
      std::unique_ptr<Query> q;
      size_t fresh;
      size_t expect_first_distinct;  // 0 = never within the table
      size_t expect_first_disjoint;
    };
    std::vector<LadderCase> cases;
    // Q_clique_3's M^3_disjoint violation needs 3 fresh values (a whole new
    // triangle), which this 1-fresh-value table cannot witness — rung 0
    // here; the hand-built witness appears under Thm 3.1(5) below.
    cases.push_back({"Q_clique_3", queries::MakeCliqueQuery(3), 1, 2, 0});
    cases.push_back({"Q_star_2", queries::MakeStarQuery(2), 3, 1, 2});
    cases.push_back(
        {"Q_TC", queries::MakeComplementTransitiveClosure(), 1, 2, 0});
    for (LadderCase& c : cases) {
      ExhaustiveOptions o;
      o.domain_size = c.label == std::string("Q_clique_3") ? 3 : 2;
      o.max_facts_i = 3;
      o.fresh_values = c.fresh;
      Result<Ladder> ladder = ComputeLadder(*c.q, 3, o);
      if (!ladder.ok()) {
        report.Check(std::string(c.label) + " ladder computed", false,
                     ladder.status().ToString());
        continue;
      }
      report.Line("%s:", c.label);
      report.Line("%s", ladder->ToString().c_str());
      report.Check(std::string(c.label) + " leaves M^i_distinct at i=" +
                       std::to_string(c.expect_first_distinct),
                   ladder->FirstDistinctViolation() == c.expect_first_distinct);
      report.Check(std::string(c.label) + " leaves M^i_disjoint at i=" +
                       std::to_string(c.expect_first_disjoint),
                   ladder->FirstDisjointViolation() == c.expect_first_disjoint);
    }
  }

  // ------------------------------------------------------------------
  report.Section("M ( Mdistinct ( Mdisjoint ( C (Theorem 3.1(1))");
  {
    auto qtc = queries::MakeComplementTransitiveClosure();
    ExhaustiveOptions o = base;
    o.fresh_values = 1;
    Verdict di = Member(*qtc, MonotonicityClass::kDomainDistinct, o);
    Verdict dj = Member(*qtc, MonotonicityClass::kDomainDisjoint, o);
    report.Check("Q_TC in Mdisjoint \\ Mdistinct",
                 di.decided && dj.decided && !di.in && dj.in, di.detail);

    auto tri = queries::MakeTrianglesUnlessTwoDisjoint();
    Result<std::optional<Counterexample>> r = CheckPair(
        *tri, workload::Cycle(3), workload::Cycle(3, /*base=*/100));
    report.Check("triangles-unless-two-disjoint in C \\ Mdisjoint",
                 r.ok() && r->has_value(),
                 r.ok() && r->has_value() ? r->value().ToString() : "");
  }

  // ------------------------------------------------------------------
  report.Section("M = M^i collapse (Theorem 3.1(2))");
  {
    auto tc = queries::MakeTransitiveClosure();
    auto star = queries::MakeStarQuery(2);
    for (size_t j : {1u, 2u, 3u}) {
      ExhaustiveOptions o = base;
      o.max_facts_j = j;
      Verdict v = Member(*tc, MonotonicityClass::kMonotone, o);
      report.Check("TC in M^" + std::to_string(j), v.decided && v.in);
    }
    ExhaustiveOptions o1 = base;
    o1.max_facts_j = 1;
    Verdict v = Member(*star, MonotonicityClass::kMonotone, o1);
    report.Check("Q_star_2 not even in M^1 (non-monotone queries fail at j=1)",
                 v.decided && !v.in, v.detail);
  }

  // ------------------------------------------------------------------
  report.Section("the M^i_distinct ladder via Q^{i+2}_clique (Thm 3.1(3))");
  for (size_t i : {1u, 2u}) {
    auto clique = queries::MakeCliqueQuery(i + 2);
    ExhaustiveOptions in_opts;
    in_opts.domain_size = 3;
    in_opts.max_facts_i = i + 2;
    in_opts.fresh_values = 1;
    in_opts.max_facts_j = i;
    Verdict inside = Member(*clique, MonotonicityClass::kDomainDistinct, in_opts);
    ExhaustiveOptions out_opts = in_opts;
    out_opts.max_facts_j = i + 1;
    Verdict outside =
        Member(*clique, MonotonicityClass::kDomainDistinct, out_opts);
    report.Check("Q_clique_" + std::to_string(i + 2) + " in M^" +
                     std::to_string(i) + "_distinct \\ M^" +
                     std::to_string(i + 1) + "_distinct",
                 inside.decided && outside.decided && inside.in && !outside.in,
                 outside.detail);
  }

  // ------------------------------------------------------------------
  report.Section("the M^i_disjoint ladder via Q^{i+1}_star (Thm 3.1(4))");
  for (size_t i : {1u, 2u}) {
    auto star = queries::MakeStarQuery(i + 1);
    ExhaustiveOptions in_opts;
    in_opts.domain_size = 2;
    in_opts.max_facts_i = 2;
    in_opts.fresh_values = i + 2;
    in_opts.max_facts_j = i;
    Verdict inside = Member(*star, MonotonicityClass::kDomainDisjoint, in_opts);
    ExhaustiveOptions out_opts = in_opts;
    out_opts.max_facts_j = i + 1;
    Verdict outside =
        Member(*star, MonotonicityClass::kDomainDisjoint, out_opts);
    report.Check("Q_star_" + std::to_string(i + 1) + " in M^" +
                     std::to_string(i) + "_disjoint \\ M^" +
                     std::to_string(i + 1) + "_disjoint",
                 inside.decided && outside.decided && inside.in && !outside.in,
                 outside.detail);
  }

  // ------------------------------------------------------------------
  report.Section("M^i_distinct ( M^i_disjoint, strictness (Thm 3.1(5,6))");
  {
    // Q^{i+1}_clique in M^i_disjoint but Q^{j+1}_star not in M^i_distinct.
    auto clique3 = queries::MakeCliqueQuery(3);
    ExhaustiveOptions o;
    o.domain_size = 3;
    o.max_facts_i = 3;
    o.fresh_values = 3;
    o.max_facts_j = 2;
    Verdict v = Member(*clique3, MonotonicityClass::kDomainDisjoint, o);
    report.Check("Q_clique_3 in M^2_disjoint (Thm 3.1(5))", v.decided && v.in);

    auto star2 = queries::MakeStarQuery(2);
    ExhaustiveOptions o1;
    o1.domain_size = 2;
    o1.max_facts_i = 1;
    o1.fresh_values = 1;
    o1.max_facts_j = 1;
    Verdict w = Member(*star2, MonotonicityClass::kDomainDistinct, o1);
    report.Check("Q_star_2 not in M^1_distinct (Thm 3.1(6))",
                 w.decided && !w.in, w.detail);
  }

  // ------------------------------------------------------------------
  report.Section("M^i_distinct !<= M^j_disjoint via Q^j_duplicate (Thm 3.1(7))");
  {
    auto dup = queries::MakeDuplicateQuery(2);
    ExhaustiveOptions o;
    o.domain_size = 2;
    o.max_facts_i = 2;
    o.fresh_values = 2;
    o.max_facts_j = 1;
    Verdict inside = Member(*dup, MonotonicityClass::kDomainDistinct, o);
    ExhaustiveOptions o2 = o;
    o2.max_facts_j = 2;
    Verdict outside = Member(*dup, MonotonicityClass::kDomainDisjoint, o2);
    report.Check("Q_duplicate_2 in M^1_distinct but not in M^2_disjoint",
                 inside.decided && outside.decided && inside.in && !outside.in,
                 outside.detail);
  }

  return report.Finish(bench::WriteObservability(flags));
}
