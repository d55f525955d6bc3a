// Reproduces Theorem 4.3 (F1 = Mdistinct), constructively:
//
//  * Mdistinct <= F1: the absence-strategy transducer computes Mdistinct
//    queries on every tested network / policy / fair schedule, and satisfies
//    Definition 3's heartbeat-prefix condition on the ideal policy.
//  * F1 <= Mdistinct: the proof's policy-splitting argument is replayed —
//    node x cannot distinguish input I under the ideal policy from I+J
//    (J domain distinct, assigned to y), so Q(I) <= Q(I+J).
//  * Contrast: the same strategy machinery cannot help a query outside
//    Mdistinct — Q_TC's heartbeat-produced prefix output would be wrong.

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

std::unique_ptr<Query> MakeVMinusS() {
  return std::make_unique<NativeQuery>(
      "v-minus-s", Schema({{"V", 1}, {"S", 1}}), Schema({{"O", 1}}),
      [](const Instance& in) -> Result<Instance> {
        Instance out;
        for (const Tuple& t : in.TuplesOf(InternName("V"))) {
          if (in.TuplesOf(InternName("S")).count(t) == 0) {
            out.Insert(Fact("O", t));
          }
        }
        return out;
      });
}

// Runs `t` on every network size in {1,2,3}, hash policies with two salts,
// round-robin + 3 random schedules; checks output == Q(input) every time.
void CheckComputesEverywhere(bench::Report& report, const Transducer& t,
                             const Query& q, const Instance& input,
                             const ModelOptions& model,
                             const std::string& label) {
  Instance expected = q.Eval(input).value();
  size_t runs = 0;
  bool all_ok = true;
  for (size_t n : {1u, 2u, 3u}) {
    Network nodes;
    for (size_t k = 0; k < n; ++k) nodes.push_back(V(900 + k));
    for (uint64_t salt : {0u, 7u}) {
      HashPolicy policy(nodes, salt);
      std::unique_ptr<TransducerNetwork> holder;
      auto make = [&]() -> Result<TransducerNetwork*> {
        holder = std::make_unique<TransducerNetwork>(nodes, &t, &policy, model);
        CALM_RETURN_IF_ERROR(holder->Initialize(input));
        return holder.get();
      };
      ConsistencyOptions co;
      co.random_runs = 3;
      co.seed = salt + n;
      Result<Instance> out = RunConsistently(make, co);
      ++runs;
      if (!out.ok() || out.value() != expected) all_ok = false;
    }
  }
  report.Check(label + " computed correctly on " + std::to_string(runs) +
                   " (network, policy) combos x 4 schedules each",
               all_ok);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::ParseFlags(&argc, argv);
  bench::Report report("Theorem 4.3 — F1 = Mdistinct (policy-aware model)");
  report.EnableJson(flags.json_path);

  auto q = MakeVMinusS();
  auto t = MakeAbsenceTransducer(q.get());

  report.Section("Mdistinct <= F1: the absence strategy computes the query");
  Instance input{Fact("V", {V(1)}), Fact("V", {V(2)}), Fact("V", {V(3)}),
                 Fact("S", {V(2)})};
  CheckComputesEverywhere(report, *t, *q, input, ModelOptions::PolicyAware(),
                          "V\\S (4 facts)");
  Instance bigger = workload::RandomInstance(q->input_schema(), 12, 6, 3);
  CheckComputesEverywhere(report, *t, *q, bigger, ModelOptions::PolicyAware(),
                          "V\\S (12 random facts)");

  report.Section("Definition 3: heartbeat-only prefix on the ideal policy");
  for (size_t n : {1u, 2u, 3u}) {
    Network nodes;
    for (size_t k = 0; k < n; ++k) nodes.push_back(V(900 + k));
    Result<bool> hb = HeartbeatPrefixComputes(*t, ModelOptions::PolicyAware(),
                                              nodes, nodes[0], input,
                                              q->Eval(input).value());
    report.Check("heartbeat prefix computes Q(I) on a " + std::to_string(n) +
                     "-node network",
                 hb.ok() && hb.value());
  }

  report.Section("F1 <= Mdistinct: the proof's policy-splitting replay");
  {
    Network nodes{V(900), V(901)};
    Value x = V(900);
    Value y = V(901);
    Instance i{Fact("V", {V(1)}), Fact("S", {V(1)}), Fact("V", {V(2)})};
    uint64_t fails = 0;
    uint64_t trials = 0;
    for (uint64_t seed = 0; seed < 10; ++seed) {
      Instance j = workload::RandomDomainDistinctExtension(
          q->input_schema(), i, /*facts=*/3, /*fresh=*/2, seed);
      if (!IsDomainDistinctFrom(j, i)) continue;
      ++trials;
      AllToOnePolicy p1(x);
      std::map<Fact, std::set<Value>> to_y;
      j.ForEachFact(
          [&](uint32_t name, const Tuple& tu) { to_y[Fact(name, tu)] = {y}; });
      OverridePolicy p2(&p1, to_y);
      TransducerNetwork network(nodes, t.get(), &p2,
                                ModelOptions::PolicyAware());
      if (!network.Initialize(Instance::Union(i, j)).ok()) {
        ++fails;
        continue;
      }
      // x's local input under P2 on I+J equals its input under P1 on I.
      if (network.local_input(x) != i) {
        ++fails;
        continue;
      }
      for (int k = 0; k < 8; ++k) (void)network.Heartbeat(x);
      Instance q_i = q->Eval(i).value();
      if (!q_i.IsSubsetOf(network.GlobalOutput())) {
        ++fails;
        continue;
      }
      Result<RunResult> rest = RunToQuiescence(network);
      if (!rest.ok() ||
          rest->output != q->Eval(Instance::Union(i, j)).value() ||
          !q_i.IsSubsetOf(rest->output)) {
        ++fails;
      }
    }
    report.Check("Q(I) <= Q(I+J) forced by the construction on " +
                     std::to_string(trials) + " random domain-distinct J's",
                 trials > 0 && fails == 0);
  }

  report.Section("contrast: Q_TC (outside Mdistinct) breaks under broadcast-style prefixes");
  {
    // Run the *absence* strategy wrapped around Q_TC on a 2-node network.
    // Q_TC is not in Mdistinct, so some adversarial distribution makes a
    // node emit an output fact that the full input refutes.
    auto qtc = queries::MakeComplementTransitiveClosure();
    auto t_qtc = MakeAbsenceTransducer(qtc.get());
    Network nodes{V(900), V(901)};
    Instance i{Fact("E", {V(0), V(0)}), Fact("E", {V(1), V(1)})};
    Instance j{Fact("E", {V(0), V(2)}), Fact("E", {V(2), V(1)})};
    AllToOnePolicy p1(V(900));
    std::map<Fact, std::set<Value>> to_y;
    j.ForEachFact(
        [&](uint32_t name, const Tuple& tu) { to_y[Fact(name, tu)] = {V(901)}; });
    OverridePolicy p2(&p1, to_y);
    TransducerNetwork network(nodes, t_qtc.get(), &p2,
                              ModelOptions::PolicyAware());
    bool leaked = false;
    if (network.Initialize(Instance::Union(i, j)).ok()) {
      for (int k = 0; k < 8; ++k) (void)network.Heartbeat(V(900));
      // x believes MyAdom complete on I and outputs O(0,1) — wrong on I+J.
      Instance full = qtc->Eval(Instance::Union(i, j)).value();
      network.GlobalOutput().ForEachFact([&](uint32_t name, const Tuple& tu) {
        if (!full.Contains(Fact(name, tu))) leaked = true;
      });
    }
    report.Check(
        "the absence strategy produces a wrong prefix output for Q_TC "
        "(hence Q_TC is not in F1)",
        leaked);
  }

  return report.Finish(bench::WriteObservability(flags));
}
