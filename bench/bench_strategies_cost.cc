// Section 4.3 — the cost of the three coordination-free evaluation
// strategies. The paper gives no measurements (its algorithms are "naive:
// the whole database is sent to all nodes"); this harness quantifies that
// naivety: messages and transitions versus network size and input size for
// broadcast (M), absence (Mdistinct) and domain-request (Mdisjoint).
//
// Measured shape: broadcast is always cheapest (exactly |I| * (n-1) fact
// messages). The other two trade off: the absence strategy's extra cost is
// the broadcast of non-facts, which is governed by |adom|^k — roughly flat
// in |I| at fixed active domain — while the domain-request protocol pays a
// few messages per (node, value) pair and overtakes the absence strategy as
// the network grows.

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

struct CostRow {
  bool ok = false;
  net::RunStats stats;
};

CostRow Measure(const Transducer& t, const DistributionPolicy& policy,
                const Network& nodes, const Instance& input,
                const Instance& expected) {
  TransducerNetwork network(nodes, &t, &policy, ModelOptions::PolicyAware());
  CostRow row;
  if (!network.Initialize(input).ok()) return row;
  RunOptions ro;
  ro.scheduler = RunOptions::SchedulerKind::kRoundRobin;
  Result<RunResult> r = RunToQuiescence(network, ro);
  if (!r.ok() || !r->quiesced || r->output != expected) return row;
  row.ok = true;
  row.stats = r->stats;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::ParseFlags(&argc, argv);
  bench::Report report("Section 4.3 — strategy cost comparison");
  report.EnableJson(flags.json_path);

  auto tc = queries::MakeTransitiveClosure();
  auto qtc = queries::MakeComplementTransitiveClosure();
  auto broadcast = MakeBroadcastTransducer(tc.get());
  auto absence = MakeAbsenceTransducer(qtc.get());
  auto request = MakeDomainRequestTransducer(qtc.get());

  report.Section("sweep over network size n (input: random graph, 12 edges)");
  Instance input = workload::RandomGraphM(8, 12, /*seed=*/1);
  Instance tc_out = tc->Eval(input).value();
  Instance qtc_out = qtc->Eval(input).value();
  report.Line("  %-3s %-24s %-12s %-12s %-12s", "n", "strategy", "transitions",
              "sent", "delivered");
  std::vector<size_t> bcast_sent;
  std::vector<size_t> abs_sent;
  std::vector<size_t> req_sent;
  for (size_t n : {1u, 2u, 3u, 4u}) {
    Network nodes;
    for (size_t k = 0; k < n; ++k) nodes.push_back(V(900 + k));
    HashPolicy hash(nodes);
    HashDomainGuidedPolicy dom(nodes);

    CostRow b = Measure(*broadcast, hash, nodes, input, tc_out);
    CostRow a = Measure(*absence, hash, nodes, input, qtc_out);
    CostRow r = Measure(*request, dom, nodes, input, qtc_out);
    report.Check("all strategies correct at n=" + std::to_string(n),
                 b.ok && a.ok && r.ok);
    for (auto [label, row] :
         {std::pair<const char*, CostRow*>{"broadcast(TC)/M", &b},
          {"absence(Q_TC)/Mdistinct", &a},
          {"domain-request(Q_TC)/Mdisjoint", &r}}) {
      report.Line("  %-3zu %-24s %-12zu %-12zu %-12zu", n, label,
                  row->stats.transitions, row->stats.messages_sent,
                  row->stats.messages_delivered);
    }
    bcast_sent.push_back(b.stats.messages_sent);
    abs_sent.push_back(a.stats.messages_sent);
    req_sent.push_back(r.stats.messages_sent);
  }
  report.Check("single node never communicates (all strategies)",
               bcast_sent[0] == 0 && abs_sent[0] == 0 && req_sent[0] == 0);
  report.Check("broadcast is strictly cheapest at every n >= 2",
               bcast_sent[1] < abs_sent[1] && bcast_sent[1] < req_sent[1] &&
                   bcast_sent[3] < abs_sent[3] && bcast_sent[3] < req_sent[3]);
  report.Check(
      "absence-vs-request crossover: absence dearer at n=2, request dearer "
      "at n=4 (protocol cost scales with nodes x values)",
      abs_sent[1] > req_sent[1] && req_sent[3] > abs_sent[3]);
  report.Check("messages grow with n for every strategy",
               bcast_sent[1] < bcast_sent[3] && abs_sent[1] < abs_sent[3] &&
                   req_sent[1] < req_sent[3]);

  report.Section("sweep over input size (n = 3 nodes)");
  report.Line("  %-7s %-24s %-12s %-12s", "edges", "strategy", "transitions",
              "sent");
  Network nodes{V(900), V(901), V(902)};
  HashPolicy hash(nodes);
  HashDomainGuidedPolicy dom(nodes);
  std::vector<size_t> abs_by_edges;
  std::vector<size_t> bcast_by_edges;
  for (size_t m : {4u, 8u, 16u, 24u}) {
    Instance in = workload::RandomGraphM(10, m, /*seed=*/m);
    Instance tco = tc->Eval(in).value();
    Instance qo = qtc->Eval(in).value();
    CostRow b = Measure(*broadcast, hash, nodes, in, tco);
    CostRow a = Measure(*absence, hash, nodes, in, qo);
    CostRow r = Measure(*request, dom, nodes, in, qo);
    report.Check("all strategies correct at |E|=" + std::to_string(m),
                 b.ok && a.ok && r.ok);
    for (auto [label, row] :
         {std::pair<const char*, CostRow*>{"broadcast(TC)/M", &b},
          {"absence(Q_TC)/Mdistinct", &a},
          {"domain-request(Q_TC)/Mdisjoint", &r}}) {
      report.Line("  %-7zu %-24s %-12zu %-12zu", m, label,
                  row->stats.transitions, row->stats.messages_sent);
    }
    abs_by_edges.push_back(a.stats.messages_sent);
    bcast_by_edges.push_back(b.stats.messages_sent);
    // Broadcast ships each fact to each other node exactly once.
    report.Check("broadcast ships exactly |E| * (n-1) messages at |E|=" +
                     std::to_string(m),
                 b.stats.messages_sent == m * (nodes.size() - 1));
  }
  // Broadcast grows linearly in |E| (6x from 4 to 24 edges); the absence
  // strategy's cost is dominated by the |adom|^2 non-fact broadcast and
  // stays within a small factor at fixed active domain.
  report.Check("broadcast cost grows ~linearly with |E| (6x edges => 6x msgs)",
               bcast_by_edges.back() == 6 * bcast_by_edges.front());
  report.Check(
      "absence cost is adom-bound: < 3x growth while |E| grows 6x",
      abs_by_edges.back() < 3 * abs_by_edges.front());

  return report.Finish(bench::WriteObservability(flags));
}
