// Reproduces Theorem 4.5 and Corollary 4.6: removing the All relation does
// not shrink the computable classes —
//
//     A1 = Mdistinct,   A2 = Mdisjoint,   F0 = A0 = M.
//
// The strategy transducers never read All, so they run unmodified in the
// no-All model; the broadcast strategy even runs obliviously (no Id, no
// All). We verify each on its class's specimen queries, and replay the
// A1 <= Mdistinct single-node argument (a node that cannot see the network
// behaves identically on a one-node and a two-node network).

#include <memory>

#include "bench/flags.h"
#include "bench/report.h"
#include "queries/graph_queries.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/strategies.h"
#include "workload/graph_gen.h"

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

bool ComputesConsistently(const Transducer& t, const Query& q,
                          const Instance& input,
                          const DistributionPolicy& policy,
                          const Network& nodes, const ModelOptions& model) {
  std::unique_ptr<TransducerNetwork> holder;
  auto make = [&]() -> Result<TransducerNetwork*> {
    holder = std::make_unique<TransducerNetwork>(nodes, &t, &policy, model);
    CALM_RETURN_IF_ERROR(holder->Initialize(input));
    return holder.get();
  };
  ConsistencyOptions co;
  co.random_runs = 3;
  Result<Instance> out = RunConsistently(make, co);
  return out.ok() && out.value() == q.Eval(input).value();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::ParseFlags(&argc, argv);
  bench::Report report(
      "Theorem 4.5 / Corollary 4.6 — the no-All and oblivious models");
  report.EnableJson(flags.json_path);

  Network nodes2{V(900), V(901)};
  Network nodes3{V(900), V(901), V(902)};

  report.Section("A1 = Mdistinct: absence strategy without All");
  {
    auto q = MakeVMinusS();
    auto t = MakeAbsenceTransducer(q.get());
    Instance input{Fact("V", {V(1)}), Fact("V", {V(2)}), Fact("V", {V(3)}),
                   Fact("S", {V(2)})};
    HashPolicy policy2(nodes2);
    HashPolicy policy3(nodes3, 3);
    report.Check("V\\S on 2 nodes (no All)",
                 ComputesConsistently(*t, *q, input, policy2, nodes2,
                                      ModelOptions::PolicyAwareNoAll()));
    report.Check("V\\S on 3 nodes (no All)",
                 ComputesConsistently(*t, *q, input, policy3, nodes3,
                                      ModelOptions::PolicyAwareNoAll()));
  }

  report.Section("A2 = Mdisjoint: domain-request strategy without All");
  {
    auto q = queries::MakeWinMove();
    auto t = MakeDomainRequestTransducer(q.get());
    Instance game{Fact("Move", {V(0), V(1)}), Fact("Move", {V(1), V(2)}),
                  Fact("Move", {V(4), V(5)}), Fact("Move", {V(5), V(4)})};
    HashDomainGuidedPolicy policy2(nodes2);
    HashDomainGuidedPolicy policy3(nodes3, 11);
    report.Check("win-move on 2 nodes (no All)",
                 ComputesConsistently(*t, *q, game, policy2, nodes2,
                                      ModelOptions::PolicyAwareNoAll()));
    report.Check("win-move on 3 nodes (no All)",
                 ComputesConsistently(*t, *q, game, policy3, nodes3,
                                      ModelOptions::PolicyAwareNoAll()));
  }

  report.Section("F0 = A0 = M: broadcast strategy runs obliviously");
  {
    auto q = queries::MakeTransitiveClosure();
    auto t = MakeBroadcastTransducer(q.get());
    Instance input = workload::RandomGraph(7, 0.25, 4);
    HashPolicy policy(nodes3);
    report.Check("TC on 3 nodes, oblivious model (no Id, no All)",
                 ComputesConsistently(*t, *q, input, policy, nodes3,
                                      ModelOptions::Oblivious()));
    report.Check("TC on 3 nodes, original model of [13]",
                 ComputesConsistently(*t, *q, input, policy, nodes3,
                                      ModelOptions::Original()));
  }

  report.Section("A1 <= Mdistinct: the single-node indistinguishability replay");
  {
    // Without All, node x on a 2-node network where y holds only the
    // domain-distinct J behaves exactly as on a 1-node network with input I.
    auto q = MakeVMinusS();
    auto t = MakeAbsenceTransducer(q.get());
    Instance i{Fact("V", {V(1)}), Fact("S", {V(1)}), Fact("V", {V(2)})};
    Instance j{Fact("V", {V(7)})};  // domain distinct from i

    // 1-node run on I.
    Network solo{V(900)};
    AllToOnePolicy p_solo(V(900));
    TransducerNetwork net1(solo, t.get(), &p_solo,
                           ModelOptions::PolicyAwareNoAll());
    (void)net1.Initialize(i);
    for (int k = 0; k < 8; ++k) (void)net1.Heartbeat(V(900));

    // 2-node run on I+J with J at y; heartbeats at x only.
    AllToOnePolicy base(V(900));
    std::map<Fact, std::set<Value>> to_y;
    j.ForEachFact(
        [&](uint32_t name, const Tuple& tu) { to_y[Fact(name, tu)] = {V(901)}; });
    OverridePolicy p2(&base, to_y);
    TransducerNetwork net2(nodes2, t.get(), &p2,
                           ModelOptions::PolicyAwareNoAll());
    (void)net2.Initialize(Instance::Union(i, j));
    for (int k = 0; k < 8; ++k) (void)net2.Heartbeat(V(900));

    report.Check("x's state identical on both networks (cannot detect node y)",
                 net1.state(V(900)) == net2.state(V(900)));
    Instance q_i = q->Eval(i).value();
    report.Check("x outputs Q(I) in both runs",
                 q_i.IsSubsetOf(net1.GlobalOutput()) &&
                     q_i.IsSubsetOf(net2.GlobalOutput()));
    Result<RunResult> rest = RunToQuiescence(net2);
    report.Check("extending the 2-node run computes Q(I+J) >= Q(I)",
                 rest.ok() &&
                     rest->output == q->Eval(Instance::Union(i, j)).value() &&
                     q_i.IsSubsetOf(rest->output));
  }

  report.Section("with All *exposed*, the same split IS detectable");
  {
    // The contrast that motivates Theorem 4.5: in the full model node x sees
    // All(y), so its system facts differ between the two networks.
    auto q = MakeVMinusS();
    auto t = MakeAbsenceTransducer(q.get());
    Instance i{Fact("V", {V(1)})};
    Network solo{V(900)};
    AllToOnePolicy policy(V(900));
    TransducerNetwork net1(solo, t.get(), &policy, ModelOptions::PolicyAware());
    TransducerNetwork net2(nodes2, t.get(), &policy,
                           ModelOptions::PolicyAware());
    (void)net1.Initialize(i);
    (void)net2.Initialize(i);
    Result<Instance> s1 = net1.SystemFactsFor(V(900), Instance{});
    Result<Instance> s2 = net2.SystemFactsFor(V(900), Instance{});
    report.Check("system facts differ when All is exposed",
                 s1.ok() && s2.ok() && s1.value() != s2.value());
  }

  return report.Finish(bench::WriteObservability(flags));
}
