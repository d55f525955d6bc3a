// The win-move story end to end — the query that motivated the whole line
// of work ("win-move is coordination-free (sometimes)", Zinn et al., and
// this paper's finer answer):
//
//   1. central evaluation under the well-founded semantics (alternating
//      fixpoint) vs. native retrograde game analysis;
//   2. the paper-conclusion "doubled program" route: the doubled win-move
//      program is *connected* stratified Datalog, hence semicon, hence in
//      Mdisjoint by Theorem 5.3 — giving the simpler proof that win-move is
//      domain-disjoint-monotone;
//   3. monotonicity placement: win-move outside Mdistinct, inside Mdisjoint;
//   4. distributed evaluation: coordination-free under domain guidance on
//      several game families, network sizes and schedules — and provably
//      NOT computable by the broadcast strategy.

#include <memory>

#include "bench/flags.h"
#include "bench/report.h"
#include "datalog/fragment.h"
#include "datalog/parser.h"
#include "datalog/wellfounded.h"
#include "monotonicity/checker.h"
#include "queries/graph_queries.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/strategies.h"
#include "workload/graph_gen.h"

using namespace calm;                // NOLINT
using namespace calm::transducer;    // NOLINT

namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

Instance AsGame(const Instance& graph) {
  Instance out;
  for (const Tuple& t : graph.TuplesOf(InternName("E"))) {
    out.Insert(Fact("Move", t));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::ParseFlags(&argc, argv);
  bench::Report report("win-move — the flagship non-monotone coordination-free query");
  report.EnableJson(flags.json_path);

  datalog::Program win = datalog::ParseOrDie("Win(x) :- Move(x, y), !Win(y).");
  datalog::ProgramInfo info = datalog::Analyze(win).value();
  auto native = queries::MakeWinMove();

  report.Section("well-founded semantics vs. retrograde analysis");
  {
    size_t agreements = 0;
    for (uint64_t seed = 0; seed < 12; ++seed) {
      Instance game = AsGame(workload::RandomGraph(8, 0.3, seed));
      Result<datalog::WellFoundedModel> wf =
          datalog::EvaluateWellFounded(win, game);
      Result<Instance> nat = native->Eval(game);
      if (!wf.ok() || !nat.ok()) continue;
      const TupleSet& w = wf->definitely.TuplesOf(InternName("Win"));
      const TupleSet& n = nat->TuplesOf(InternName("O"));
      if (w == n) ++agreements;
    }
    report.Check("alternating fixpoint == retrograde analysis on 12 random games",
                 agreements == 12);
  }

  report.Section("the doubled-program route (paper's conclusion)");
  {
    report.Check("win-move itself is not stratifiable",
                 !datalog::IsStratifiable(win, info));
    datalog::DoubledProgram doubled =
        datalog::BuildDoubledProgram(win, info, /*steps=*/6);
    datalog::ProgramInfo dinfo = datalog::Analyze(doubled.program).value();
    datalog::FragmentInfo dfrag =
        datalog::ClassifyFragment(doubled.program, dinfo);
    report.Check("the doubled program IS stratifiable", dfrag.stratifiable);
    report.Check(
        "the doubled program is *connected* stratified Datalog (con-Datalog¬)",
        dfrag.connected_stratified);
    report.Check("hence semicon, so within Mdisjoint by Theorem 5.3",
                 dfrag.semi_connected);

    // The doubled program agrees with the alternating fixpoint whenever the
    // alternation converges within the unrolled steps.
    size_t agree = 0;
    size_t total = 0;
    uint32_t lo6 = InternName(datalog::DoubledProgram::LoName("Win", 6));
    for (uint64_t seed = 0; seed < 8; ++seed) {
      Instance game = AsGame(workload::RandomGraph(6, 0.35, seed));
      Result<datalog::WellFoundedModel> wf =
          datalog::EvaluateWellFounded(win, game);
      Result<Instance> out = datalog::Evaluate(doubled.program, game);
      if (!wf.ok() || !out.ok()) continue;
      ++total;
      if (out->TuplesOf(lo6) == wf->definitely.TuplesOf(InternName("Win"))) {
        ++agree;
      }
    }
    report.Check("doubled program (6 rounds) == well-founded model on " +
                     std::to_string(total) + " games",
                 total == 8 && agree == total);
  }

  report.Section("monotonicity placement (Figure 1 position of win-move)");
  {
    monotonicity::ExhaustiveOptions o;
    o.domain_size = 2;
    o.max_facts_i = 2;
    o.fresh_values = 2;
    o.max_facts_j = 2;
    auto not_distinct = monotonicity::FindViolation(
        *native, monotonicity::MonotonicityClass::kDomainDistinct, o);
    report.Check("win-move not in Mdistinct",
                 not_distinct.ok() && not_distinct->has_value(),
                 not_distinct.ok() && not_distinct->has_value()
                     ? not_distinct->value().ToString()
                     : "");
    monotonicity::ExhaustiveOptions od = o;
    od.fresh_values = 3;
    od.max_facts_j = 3;
    auto in_disjoint = monotonicity::FindViolation(
        *native, monotonicity::MonotonicityClass::kDomainDisjoint, od);
    report.Check("win-move in Mdisjoint (exhaustive bounded)",
                 in_disjoint.ok() && !in_disjoint->has_value());
  }

  report.Section("distributed win-move across game families");
  {
    auto t = MakeDomainRequestTransducer(native.get());
    struct GameCase {
      const char* label;
      Instance game;
    };
    std::vector<GameCase> games;
    games.push_back({"chain of 6", AsGame(workload::Path(6))});
    games.push_back({"drawn cycle of 4", AsGame(workload::Cycle(4))});
    games.push_back({"random 8-vertex", AsGame(workload::RandomGraph(8, 0.3, 3))});
    Instance mixed = AsGame(workload::Path(4));
    mixed.InsertAll(AsGame(workload::Cycle(3, 100)));
    games.push_back({"chain + disjoint drawn cycle", mixed});

    for (const GameCase& g : games) {
      Instance expected = native->Eval(g.game).value();
      bool all_ok = true;
      for (size_t n : {1u, 2u, 3u}) {
        Network nodes;
        for (size_t k = 0; k < n; ++k) nodes.push_back(V(900 + k));
        HashDomainGuidedPolicy policy(nodes, n);
        std::unique_ptr<TransducerNetwork> holder;
        auto make = [&]() -> Result<TransducerNetwork*> {
          holder = std::make_unique<TransducerNetwork>(
              nodes, t.get(), &policy, ModelOptions::PolicyAware());
          CALM_RETURN_IF_ERROR(holder->Initialize(g.game));
          return holder.get();
        };
        ConsistencyOptions co;
        co.random_runs = 2;
        co.seed = n;
        Result<Instance> out = RunConsistently(make, co);
        if (!out.ok() || out.value() != expected) all_ok = false;
      }
      report.Check(std::string(g.label) + " computed on 1..3 nodes x schedules",
                   all_ok);
    }
  }

  report.Section("broadcast cannot compute win-move (it is not monotone)");
  {
    auto t = MakeBroadcastTransducer(native.get());
    Network nodes{V(900), V(901)};
    // Adversarial split: Move(0,1) at one node, Move(1,2) at the other;
    // the first node eagerly outputs O(0), which the full game refutes.
    std::map<Fact, std::set<Value>> ov{
        {Fact("Move", {V(0), V(1)}), {V(900)}},
        {Fact("Move", {V(1), V(2)}), {V(901)}},
    };
    HashPolicy base(nodes);
    OverridePolicy policy(&base, ov);
    Instance game{Fact("Move", {V(0), V(1)}), Fact("Move", {V(1), V(2)})};
    TransducerNetwork network(nodes, t.get(), &policy,
                              ModelOptions::Original());
    bool leaked = false;
    if (network.Initialize(game).ok()) {
      Result<RunResult> r = RunToQuiescence(network);
      Instance expected = native->Eval(game).value();
      leaked = r.ok() && r->output != expected &&
               expected.IsSubsetOf(r->output);
    }
    report.Check("broadcast leaks the retracted output O(0)", leaked);
  }

  return report.Finish(bench::WriteObservability(flags));
}
