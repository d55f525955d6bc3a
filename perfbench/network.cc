// The `network` workload: the Figure 2 strategies run to quiescence on a
// 4-node network over seeded random graphs — broadcast on TC,
// domain-request on Q_TC and on win-move, absence on an SP-Datalog program —
// each under round-robin async, seeded-random async, one chaos fault plan,
// and BSP supersteps. One item is one run; its output must equal the native
// (Datalog-free) query result.

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "datalog/parser.h"
#include "datalog/program.h"
#include "net/fault.h"
#include "queries/graph_queries.h"
#include "queries/paper_programs.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/strategies.h"
#include "workload/graph_gen.h"
#include "workload/instance_gen.h"
#include "workloads.h"

namespace calm::perfbench {
namespace {

// Each pass covers several seeded graphs, so a pass's cost does not hinge
// on one graph's reachability structure.
constexpr size_t kGraphs = 4;
constexpr size_t kVertices = 64;
constexpr size_t kEdges = 160;
// Absence broadcasts a non-fact per potential fact, so it gets a smaller
// input: V and S facts over 64 values.
constexpr size_t kAbsenceFacts = 80;
constexpr size_t kAbsenceDomain = 64;

enum class Strategy { kBroadcast, kDomainRequest, kAbsence };
enum class Mode { kRoundRobin, kRandom, kFault, kBsp };
constexpr Mode kModes[] = {Mode::kRoundRobin, Mode::kRandom, Mode::kFault,
                           Mode::kBsp};
const char* const kModeNames[] = {"rr", "random", "fault", "bsp"};

// One query the strategies run, with its input and its native answer.
struct Case {
  std::string name;
  Strategy strategy;
  const datalog::DatalogQuery* query;
  Instance input;
  std::vector<Tuple> expected;  // output tuples, relation name dropped
};

// The tuples of `instance`'s facts, sorted. Native and Datalog queries name
// their output relations differently (win-move: O vs Win).
std::vector<Tuple> Tuples(const Instance& instance) {
  std::vector<Tuple> out;
  instance.ForEachFact([&](uint32_t, const Tuple& t) { out.push_back(t); });
  std::sort(out.begin(), out.end());
  return out;
}

class NetworkWorkload : public Workload {
 public:
  Status Setup(uint64_t seed) override {
    seed_ = seed;
    cases_.clear();

    const int64_t t0 = NowNs();
    auto tc = std::make_unique<datalog::DatalogQuery>(queries::TcProgram());
    auto qtc = std::make_unique<datalog::DatalogQuery>(
        queries::ComplementTcProgram());
    auto wm =
        std::make_unique<datalog::DatalogQuery>(queries::WinMoveProgram());
    CALM_ASSIGN_OR_RETURN(datalog::Program parsed,
                          datalog::Parse("O(x) :- V(x), !S(x).\n"));
    CALM_ASSIGN_OR_RETURN(
        datalog::DatalogQuery absence,
        datalog::DatalogQuery::Create(std::move(parsed), "absence-sp"));
    prepare_ms_ = (NowNs() - t0) / 1e6;

    const Schema absence_schema({{"V", 1}, {"S", 1}});
    for (size_t g = 0; g < kGraphs; ++g) {
      const std::string suffix = "-g" + std::to_string(g);
      const Instance graph =
          workload::RandomGraphM(kVertices, kEdges, MixSeed(seed, 2 * g));
      Instance moves;
      graph.ForEachFact(
          [&](uint32_t, const Tuple& t) { moves.Insert(Fact("Move", t)); });
      const Instance absence_input =
          workload::RandomInstance(absence_schema, kAbsenceFacts,
                                   kAbsenceDomain, MixSeed(seed, 2 * g + 1));

      // Reference outputs from the native queries and a direct difference.
      CALM_ASSIGN_OR_RETURN(Instance tc_out,
                            queries::MakeTransitiveClosure()->Eval(graph));
      CALM_ASSIGN_OR_RETURN(
          Instance qtc_out,
          queries::MakeComplementTransitiveClosure()->Eval(graph));
      CALM_ASSIGN_OR_RETURN(Instance wm_out,
                            queries::MakeWinMove()->Eval(moves));
      std::vector<Tuple> v_minus_s;
      for (const Tuple& t : absence_input.TuplesOf(InternName("V"))) {
        if (!absence_input.TuplesOf(InternName("S")).contains(t)) {
          v_minus_s.push_back(t);
        }
      }

      cases_.push_back({"TC" + suffix, Strategy::kBroadcast, tc.get(), graph,
                        Tuples(tc_out)});
      cases_.push_back({"Q_TC" + suffix, Strategy::kDomainRequest, qtc.get(),
                        graph, Tuples(qtc_out)});
      cases_.push_back({"win-move" + suffix, Strategy::kDomainRequest,
                        wm.get(), moves, Tuples(wm_out)});
      cases_.push_back({"absence" + suffix, Strategy::kAbsence, nullptr,
                        absence_input, std::move(v_minus_s)});
    }
    queries_.clear();
    queries_.push_back(std::move(tc));
    queries_.push_back(std::move(qtc));
    queries_.push_back(std::move(wm));
    queries_.push_back(
        std::make_unique<datalog::DatalogQuery>(std::move(absence)));
    for (Case& c : cases_) {
      if (c.strategy == Strategy::kAbsence) c.query = queries_.back().get();
    }
    outputs_.assign(items(), std::nullopt);
    return Status::Ok();
  }

  size_t items() const override { return cases_.size() * 4; }
  std::string ItemName(size_t k) const override {
    return cases_[k / 4].name + "-" + kModeNames[k % 4];
  }
  void SetThreads(size_t) override {}

  bool Run(size_t k, Tracer* tracer, std::string* why) override {
    const Case& c = cases_[k / 4];
    const Mode mode = kModes[k % 4];
    std::optional<TimedQuery> timed;
    if (tracer != nullptr) timed.emplace(*c.query, tracer);
    const Query* q = c.query;
    if (timed) q = &*timed;

    transducer::Network nodes;
    for (uint64_t n = 0; n < 4; ++n) nodes.push_back(Value::FromInt(900 + n));
    std::unique_ptr<transducer::DistributionPolicy> policy;
    std::unique_ptr<transducer::Transducer> strategy;
    transducer::ModelOptions model = transducer::ModelOptions::PolicyAware();
    switch (c.strategy) {
      case Strategy::kBroadcast:
        policy = std::make_unique<transducer::HashPolicy>(nodes);
        strategy = transducer::MakeBroadcastTransducer(q);
        model = transducer::ModelOptions::Original();
        break;
      case Strategy::kDomainRequest:
        policy = std::make_unique<transducer::HashDomainGuidedPolicy>(nodes);
        strategy = transducer::MakeDomainRequestTransducer(q);
        break;
      case Strategy::kAbsence:
        policy = std::make_unique<transducer::HashPolicy>(nodes);
        strategy = transducer::MakeAbsenceTransducer(q);
        break;
    }

    transducer::RunOptions ro;
    std::optional<net::FaultPlan> plan;
    const char* span_name = "transducer.run_async";
    switch (mode) {
      case Mode::kRoundRobin:
        break;
      case Mode::kRandom:
        ro.scheduler = transducer::RunOptions::SchedulerKind::kRandom;
        ro.seed = MixSeed(seed_, k);
        break;
      case Mode::kFault:
        plan.emplace(net::FaultPlan::Random(MixSeed(seed_, 0xFA17 + k),
                                            net::FaultProfile::Chaos()));
        ro.faults = &*plan;
        span_name = "transducer.run_fault";
        break;
      case Mode::kBsp:
        ro.semantics = transducer::NetworkSemantics::kBsp;
        span_name = "transducer.run_bsp";
        break;
    }

    Result<transducer::RunResult> run = [&]() -> Result<transducer::RunResult> {
      ScopedSpan span(tracer, span_name, static_cast<uint32_t>(k));
      transducer::TransducerNetwork network(nodes, strategy.get(),
                                            policy.get(), model);
      CALM_RETURN_IF_ERROR(network.Initialize(c.input));
      return RunToQuiescence(network, ro);
    }();
    if (!run.ok()) {
      *why = run.status().ToString();
      return false;
    }
    if (!run->quiesced) {
      *why = "did not quiesce";
      return false;
    }
    if (Tuples(run->output) != c.expected) {
      *why = "output differs from the native query";
      return false;
    }
    if (tracer == nullptr) {
      outputs_[k] = std::move(*run);
      return true;
    }
    tally_.Add(run->stats);
    if (plan) tally_.AddFaults(plan->stats());
    const std::optional<transducer::RunResult>& ref = outputs_[k];
    if (!ref || ref->output != run->output ||
        ref->stats.transitions != run->stats.transitions ||
        ref->stats.messages_sent != run->stats.messages_sent ||
        ref->supersteps != run->supersteps) {
      *why = "traced run differs from untraced";
      return false;
    }
    return true;
  }

  void LayerMetrics(std::map<std::string, double>* out) const override {
    (*out)["datalog.prepare_ms"] += prepare_ms_;
    tally_.Report(out);
  }
  void ResetLayerMetrics() override { tally_ = NetTally(); }

 private:
  uint64_t seed_ = 0;
  std::vector<std::unique_ptr<datalog::DatalogQuery>> queries_;
  std::vector<Case> cases_;
  // Per item, from the untraced run: traced runs must reproduce it.
  std::vector<std::optional<transducer::RunResult>> outputs_;
  double prepare_ms_ = 0;
  NetTally tally_;
};

}  // namespace

std::unique_ptr<Workload> MakeNetwork(const WorkloadOptions&) {
  return std::make_unique<NetworkWorkload>();
}

}  // namespace calm::perfbench
