// Reproduces Theorem 4.4 (F2 = Mdisjoint) constructively:
//
//  * Mdisjoint <= F2: the domain-request transducer computes Mdisjoint
//    queries (win-move, Q_TC) on every tested network with domain-guided
//    policies and fair schedules, and satisfies Definition 3.
//  * F2 <= Mdisjoint: replay of the proof's value-splitting argument with a
//    domain assignment sending adom(J) to y.
//  * Plus Zinn et al.'s headline: win-move is coordination-free under
//    domain guidance despite being non-monotone.

#include <memory>

#include "bench/flags.h"
#include "bench/report.h"
#include "queries/graph_queries.h"
#include "transducer/coordination.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/strategies.h"
#include "workload/graph_gen.h"
#include "workload/instance_gen.h"

using namespace calm;             // NOLINT
using namespace calm::transducer; // NOLINT

namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

void CheckComputesEverywhere(bench::Report& report, const Transducer& t,
                             const Query& q, const Instance& input,
                             const std::string& label) {
  Instance expected = q.Eval(input).value();
  size_t runs = 0;
  bool all_ok = true;
  for (size_t n : {1u, 2u, 3u}) {
    Network nodes;
    for (size_t k = 0; k < n; ++k) nodes.push_back(V(900 + k));
    for (uint64_t salt : {0u, 5u}) {
      HashDomainGuidedPolicy policy(nodes, salt);
      std::unique_ptr<TransducerNetwork> holder;
      auto make = [&]() -> Result<TransducerNetwork*> {
        holder = std::make_unique<TransducerNetwork>(
            nodes, &t, &policy, ModelOptions::PolicyAware());
        CALM_RETURN_IF_ERROR(holder->Initialize(input));
        return holder.get();
      };
      ConsistencyOptions co;
      co.random_runs = 3;
      co.seed = salt * 17 + n;
      Result<Instance> out = RunConsistently(make, co);
      ++runs;
      if (!out.ok() || out.value() != expected) all_ok = false;
    }
  }
  report.Check(label + " computed correctly on " + std::to_string(runs) +
                   " (network, domain assignment) combos x 4 schedules",
               all_ok);
}

Instance RenameEdgesTo(const Instance& graph, const char* rel) {
  Instance out;
  for (const Tuple& t : graph.TuplesOf(InternName("E"))) {
    out.Insert(Fact(rel, t));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::ParseFlags(&argc, argv);
  bench::Report report("Theorem 4.4 — F2 = Mdisjoint (domain-guided model)");
  report.EnableJson(flags.json_path);

  report.Section("Mdisjoint <= F2: win-move (non-monotone!) and Q_TC");
  {
    auto win = queries::MakeWinMove();
    auto t_win = MakeDomainRequestTransducer(win.get());
    Instance game = RenameEdgesTo(workload::RandomGraph(7, 0.3, 2), "Move");
    CheckComputesEverywhere(report, *t_win, *win, game, "win-move (random game)");
    Instance chain{Fact("Move", {V(0), V(1)}), Fact("Move", {V(1), V(2)}),
                   Fact("Move", {V(3), V(4)}), Fact("Move", {V(4), V(3)})};
    CheckComputesEverywhere(report, *t_win, *win, chain,
                            "win-move (chain + drawn cycle)");

    auto qtc = queries::MakeComplementTransitiveClosure();
    auto t_qtc = MakeDomainRequestTransducer(qtc.get());
    CheckComputesEverywhere(report, *t_qtc, *qtc, workload::Path(5),
                            "Q_TC (path)");
    CheckComputesEverywhere(report, *t_qtc, *qtc,
                            workload::RandomGraph(6, 0.25, 9), "Q_TC (random)");
  }

  report.Section("Definition 3 under domain guidance: heartbeat prefix");
  {
    auto win = queries::MakeWinMove();
    auto t_win = MakeDomainRequestTransducer(win.get());
    Instance game{Fact("Move", {V(0), V(1)}), Fact("Move", {V(1), V(2)})};
    for (size_t n : {1u, 2u, 3u}) {
      Network nodes;
      for (size_t k = 0; k < n; ++k) nodes.push_back(V(900 + k));
      Result<bool> hb = HeartbeatPrefixComputes(
          *t_win, ModelOptions::PolicyAware(), nodes, nodes[0], game,
          win->Eval(game).value());
      report.Check("win-move heartbeat prefix on a " + std::to_string(n) +
                       "-node network",
                   hb.ok() && hb.value());
    }
  }

  report.Section("F2 <= Mdisjoint: value-splitting replay");
  {
    auto win = queries::MakeWinMove();
    auto t_win = MakeDomainRequestTransducer(win.get());
    Network nodes{V(900), V(901)};
    Value x = V(900);
    Value y = V(901);
    Instance i{Fact("Move", {V(0), V(1)})};
    size_t trials = 0;
    size_t fails = 0;
    for (uint64_t seed = 0; seed < 10; ++seed) {
      Instance j = workload::RandomDomainDisjointExtension(
          win->input_schema(), i, /*facts=*/3, /*fresh=*/3, seed);
      if (j.empty() || !IsDomainDisjointFrom(j, i)) continue;
      ++trials;
      // alpha: adom(J) -> {y}, everything else -> {x}.
      std::map<Value, std::set<Value>> alpha;
      for (Value v : j.ActiveDomain()) alpha[v] = {y};
      MapDomainGuidedPolicy policy(nodes, alpha, /*fallback=*/x);
      TransducerNetwork network(nodes, t_win.get(), &policy,
                                ModelOptions::PolicyAware());
      if (!network.Initialize(Instance::Union(i, j)).ok()) {
        ++fails;
        continue;
      }
      if (network.local_input(x) != i) {
        ++fails;
        continue;
      }
      for (int k = 0; k < 8; ++k) (void)network.Heartbeat(x);
      Instance q_i = win->Eval(i).value();
      if (!q_i.IsSubsetOf(network.GlobalOutput())) {
        ++fails;
        continue;
      }
      Result<RunResult> rest = RunToQuiescence(network);
      Instance q_ij = win->Eval(Instance::Union(i, j)).value();
      if (!rest.ok() || rest->output != q_ij || !q_i.IsSubsetOf(q_ij)) ++fails;
    }
    report.Check("Q(I) <= Q(I+J) forced on " + std::to_string(trials) +
                     " random domain-disjoint J's",
                 trials > 0 && fails == 0);
  }

  report.Section("outside Mdisjoint: the triangle query cannot be in F2");
  {
    // Under the ideal split (triangle A at x, disjoint triangle B at y), x's
    // heartbeat prefix outputs triangle A — but Q(I) on the full input is
    // empty, so any F2-style strategy would be wrong. We replay this with
    // the domain-request transducer.
    auto tri = queries::MakeTrianglesUnlessTwoDisjoint();
    auto t_tri = MakeDomainRequestTransducer(tri.get());
    Network nodes{V(900), V(901)};
    Instance a = workload::Cycle(3);
    Instance b = workload::Cycle(3, /*base=*/50);
    std::map<Value, std::set<Value>> alpha;
    for (Value v : b.ActiveDomain()) alpha[v] = {V(901)};
    MapDomainGuidedPolicy policy(nodes, alpha, V(900));
    TransducerNetwork network(nodes, t_tri.get(), &policy,
                              ModelOptions::PolicyAware());
    bool leaked = false;
    if (network.Initialize(Instance::Union(a, b)).ok()) {
      for (int k = 0; k < 8; ++k) (void)network.Heartbeat(V(900));
      // Full-input answer is empty; anything output is a leak.
      leaked = !network.GlobalOutput().empty();
    }
    report.Check(
        "domain-request strategy wrongly outputs a triangle for a query "
        "outside Mdisjoint",
        leaked);
  }

  return report.Finish(bench::WriteObservability(flags));
}
