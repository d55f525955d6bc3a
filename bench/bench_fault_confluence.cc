// Confluence-under-faults harness: hammers the Section 4.2/4.3 strategy
// transducers with seeded fault plans (duplication, reordering,
// drop-with-retransmit, partition-then-heal, crash-restart) crossed with
// every scheduler and checks the coordination-free strategies still compute
// their query — the fault-tolerant reading of Theorems 4.3-4.5. The
// racy-election negative control must diverge; its divergence is
// delta-debugged to a minimal fault schedule, written as a JSON trace, and
// replayed to verify the witness is deterministic.
//
// Flags (besides bench/flags.h's --threads/--json):
//   --plans N        fault plans per scheduler kind (default 64)
//   --seed N         base seed for plan generation (default 1)
//   --trace_dir DIR  write divergence traces as DIR/<scenario>-<n>.json
//   --replay FILE    replay a recorded trace instead of running the sweep

#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "bench/flags.h"
#include "bench/report.h"
#include "queries/graph_queries.h"
#include "transducer/confluence.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/strategies.h"
#include "workload/graph_gen.h"

namespace {

using namespace calm;  // NOLINT

Value V(uint64_t i) { return Value::FromInt(i); }

// ---------------------------------------------------------------------------
// Scenario catalog. A trace names its scenario, so replay can rebuild the
// identical (transducer, policy, input) without shipping code in the trace.
// ---------------------------------------------------------------------------

struct Scenario {
  std::string name;
  bool coordination_free = true;
  std::unique_ptr<Query> query;  // null for racy-election
  std::unique_ptr<transducer::Transducer> machine;
  Instance input;
  transducer::Network nodes;
  std::unique_ptr<transducer::DistributionPolicy> policy;
  transducer::ModelOptions model;

  transducer::NetworkFactory Factory() const {
    return [this]() -> Result<std::unique_ptr<transducer::TransducerNetwork>> {
      auto network = std::make_unique<transducer::TransducerNetwork>(
          nodes, machine.get(), policy.get(), model);
      CALM_RETURN_IF_ERROR(network->Initialize(input));
      return network;
    };
  }
};

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

std::unique_ptr<Scenario> MakeScenario(const std::string& name) {
  auto s = std::make_unique<Scenario>();
  s->name = name;
  const uint64_t seed = 1;
  const size_t node_count = 3;
  for (size_t k = 0; k < node_count; ++k) s->nodes.push_back(V(900 + k));
  if (name == "broadcast-tc") {
    s->query = queries::MakeTransitiveClosure();
    s->machine = transducer::MakeBroadcastTransducer(s->query.get());
    s->input = workload::RandomGraph(6, 0.3, seed);
    s->policy = std::make_unique<transducer::HashPolicy>(s->nodes, seed);
    s->model = transducer::ModelOptions::Original();
  } else if (name == "absence-vminus") {
    s->query = MakeVMinusS();
    s->machine = transducer::MakeAbsenceTransducer(s->query.get());
    for (uint64_t k = 0; k < 4; ++k) s->input.Insert(Fact("V", {V(k)}));
    s->input.Insert(Fact("S", {V(1)}));
    s->policy = std::make_unique<transducer::HashPolicy>(s->nodes, seed);
    s->model = transducer::ModelOptions::PolicyAware();
  } else if (name == "request-winmove") {
    s->query = queries::MakeWinMove();
    s->machine = transducer::MakeDomainRequestTransducer(s->query.get());
    Instance graph = workload::RandomGraph(5, 0.35, seed);
    for (const Tuple& t : graph.TuplesOf(InternName("E"))) {
      s->input.Insert(Fact("Move", t));
    }
    s->policy =
        std::make_unique<transducer::HashDomainGuidedPolicy>(s->nodes, seed);
    s->model = transducer::ModelOptions::PolicyAware();
  } else if (name == "racy-election") {
    s->coordination_free = false;
    s->machine = transducer::MakeRacyElectionTransducer();
    for (uint64_t k = 1; k <= node_count; ++k) {
      s->input.Insert(Fact("P", {V(k)}));
    }
    s->policy = std::make_unique<transducer::HashPolicy>(s->nodes, seed);
    s->model = transducer::ModelOptions::Original();
  } else {
    return nullptr;
  }
  return s;
}

const char* const kScenarios[] = {"broadcast-tc", "absence-vminus",
                                  "request-winmove", "racy-election"};

transducer::TraceRecord WitnessTrace(
    const Scenario& s, const transducer::ConfluenceReport& report,
    const transducer::DivergenceWitness& witness) {
  transducer::TraceRecord trace;
  trace.scenario = s.name;
  trace.policy = "hash";
  trace.policy_salt = 1;
  trace.model = s.model.ToString();
  for (Value n : s.nodes) trace.nodes.push_back(n.payload());
  s.input.ForEachFact([&](uint32_t rel, const Tuple& t) {
    trace.input.push_back(Fact(rel, t));
  });
  trace.scheduler = witness.scheduler;
  trace.scheduler_seed = witness.plan_seed;
  trace.events = witness.events;
  trace.choices = witness.choices;
  report.reference.ForEachFact([&](uint32_t rel, const Tuple& t) {
    trace.expected_output.push_back(Fact(rel, t));
  });
  witness.observed.ForEachFact([&](uint32_t rel, const Tuple& t) {
    trace.observed_output.push_back(Fact(rel, t));
  });
  return trace;
}

int ReplayFile(const std::string& path, bench::Report* report) {
  std::ifstream in(path);
  if (!in) {
    report->Check("trace file opens", false, path);
    return report->Finish();
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<transducer::TraceRecord> trace =
      transducer::ParseTrace(buffer.str());
  report->Check("trace parses", trace.ok(),
                trace.ok() ? "" : trace.status().ToString());
  if (!trace.ok()) return report->Finish();
  std::unique_ptr<Scenario> scenario = MakeScenario(trace->scenario);
  report->Check("scenario '" + trace->scenario + "' known",
                scenario != nullptr);
  if (scenario == nullptr) return report->Finish();
  report->Line("replaying %s: %zu fault events under %s(seed=%llu)",
               path.c_str(), trace->events.size(),
               transducer::SchedulerKindName(trace->scheduler),
               static_cast<unsigned long long>(trace->scheduler_seed));
  Result<transducer::ReplayOutcome> outcome =
      transducer::ReplayTrace(scenario->Factory(), *trace);
  report->Check("replay runs", outcome.ok(),
                outcome.ok() ? "" : outcome.status().ToString());
  if (!outcome.ok()) return report->Finish();
  report->Check("recorded output reproduced", outcome->reproduced_output,
                outcome->result.output.ToString());
  report->Check("recorded schedule reproduced", outcome->reproduced_choices);
  report->Line("divergence from expected output: %s",
               outcome->diverged ? "yes" : "no");
  return report->Finish();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags = bench::ParseFlags(
      &argc, argv, {"--plans", "--seed", "--trace_dir", "--replay"});
  bench::InstallCancelHandlers();
  size_t plans = 64;
  uint64_t seed = 1;
  std::string trace_dir;
  std::string replay_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s expects a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--plans") == 0) {
      plans = std::strtoul(next("--plans"), nullptr, 10);
    } else if (std::strcmp(arg, "--seed") == 0) {
      seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (std::strcmp(arg, "--trace_dir") == 0) {
      trace_dir = next("--trace_dir");
    } else if (std::strcmp(arg, "--replay") == 0) {
      replay_path = next("--replay");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return 2;
    }
  }

  bench::Report report(
      replay_path.empty()
          ? "Fault-injection confluence oracle (Theorems 4.3-4.5 under "
            "duplication / reorder / drop-retransmit / partition / crash)"
          : "Divergence trace replay");
  if (!flags.json_path.empty()) report.EnableJson(flags.json_path);
  if (!replay_path.empty()) return ReplayFile(replay_path, &report);

  transducer::ConfluenceOptions opts;
  opts.fault_plans = plans;
  opts.seed = seed;
  opts.threads = DefaultThreads();

  net::FaultStats aggregate;
  size_t total_runs = 0;
  size_t traces_written = 0;
  for (const char* name : kScenarios) {
    // A SIGINT/SIGTERM between scenarios still flushes --metrics_out /
    // --trace_out with everything gathered so far.
    bench::ExitIfCancelled(flags);
    std::unique_ptr<Scenario> s = MakeScenario(name);
    report.Section(s->name);
    transducer::ConfluenceOptions scenario_opts = opts;
    if (!s->coordination_free) {
      // Round-robin only: the faultless round-robin run is deterministic,
      // so every divergence is attributable to the injected faults and the
      // shrunk schedule is a meaningful witness.
      scenario_opts.schedulers = {
          transducer::RunOptions::SchedulerKind::kRoundRobin};
    }
    Result<transducer::ConfluenceReport> result =
        transducer::CheckConfluence(s->Factory(), scenario_opts);
    if (!result.ok()) {
      report.Check(s->name + " oracle runs", false, result.status().ToString());
      continue;
    }
    total_runs += result->runs;
    const net::FaultStats& fs = result->total_faults;
    aggregate.duplicates += fs.duplicates;
    aggregate.drops += fs.drops;
    aggregate.retransmits += fs.retransmits;
    aggregate.reorders += fs.reorders;
    aggregate.partitions += fs.partitions;
    aggregate.partition_holds += fs.partition_holds;
    aggregate.crashes += fs.crashes;
    report.Line(
        "  %zu runs (%zu faulted): %zu dup, %zu dropped, %zu reordered, "
        "%zu partitions, %zu crashes",
        result->runs, result->faulted_runs, fs.duplicates, fs.drops,
        fs.reorders, fs.partitions, fs.crashes);

    if (s->coordination_free) {
      std::string detail;
      if (!result->confluent()) {
        const transducer::DivergenceWitness& w = result->divergences[0];
        detail = std::string("diverged under ") +
                 transducer::SchedulerKindName(w.scheduler) +
                 " plan seed " + std::to_string(w.plan_seed);
      }
      report.Check(s->name + " confluent under all fault plans",
                   result->confluent(), detail);
    } else {
      report.Check(s->name + " diverges (coordination detected)",
                   !result->confluent());
      for (size_t d = 0; d < result->divergences.size(); ++d) {
        const transducer::DivergenceWitness& w = result->divergences[d];
        report.Line("  witness %zu: %zu events shrunk to %zu (%s, seed %llu)",
                    d, w.original_events, w.events.size(),
                    transducer::SchedulerKindName(w.scheduler),
                    static_cast<unsigned long long>(w.plan_seed));
        transducer::TraceRecord trace = WitnessTrace(*s, *result, w);

        // The witness must replay deterministically to the same divergence.
        Result<transducer::ReplayOutcome> replay =
            transducer::ReplayTrace(s->Factory(), trace);
        bool deterministic = replay.ok() && replay->reproduced_output &&
                             replay->reproduced_choices && replay->diverged;
        if (d == 0) {
          report.Check("shrunk witness replays deterministically",
                       deterministic,
                       replay.ok() ? "" : replay.status().ToString());
        }

        Result<std::string> json = transducer::SerializeTrace(trace);
        if (d == 0) {
          report.Check("witness serializes to JSON", json.ok(),
                       json.ok() ? "" : json.status().ToString());
        }
        if (json.ok() && !trace_dir.empty()) {
          std::string path = trace_dir + "/" + s->name + "-" +
                             std::to_string(d) + ".json";
          std::ofstream out(path);
          if (out) {
            out << *json;
            ++traces_written;
            report.Line("  trace written to %s", path.c_str());
          } else {
            report.Check("trace written", false, path);
          }
        }
      }
      if (!result->divergences.empty()) {
        report.Metric("witness_events_original",
                      static_cast<double>(
                          result->divergences[0].original_events));
        report.Metric(
            "witness_events_shrunk",
            static_cast<double>(result->divergences[0].events.size()));
      }
    }
  }

  report.Section("fault coverage");
  report.Metric("runs", static_cast<double>(total_runs));
  report.Metric("faults_duplicate", static_cast<double>(aggregate.duplicates));
  report.Metric("faults_drop", static_cast<double>(aggregate.drops));
  report.Metric("faults_reorder", static_cast<double>(aggregate.reorders));
  report.Metric("faults_partition", static_cast<double>(aggregate.partitions));
  report.Metric("faults_crash", static_cast<double>(aggregate.crashes));
  if (traces_written > 0) {
    report.Metric("traces_written", static_cast<double>(traces_written));
  }
  // The acceptance bar: the sweep exercised every one of the five fault
  // kinds (so "confluent under all plans" actually covered the model).
  report.Check("all five fault kinds exercised",
               aggregate.duplicates > 0 && aggregate.drops > 0 &&
                   aggregate.reorders > 0 && aggregate.partitions > 0 &&
                   aggregate.crashes > 0);
  // Observability cross-check: one traced, faulted run of the win-move
  // scenario. Every completed transition records exactly one net.step span
  // and every reorder/partition/crash exactly one net.fault.* instant, so
  // the Chrome trace written by --trace_out must agree with RunStats and
  // FaultStats to the event.
  if (TracingEnabled()) {
    report.Section("observability cross-check (trace vs RunStats)");
    std::unique_ptr<Scenario> s = MakeScenario("request-winmove");
    Result<std::unique_ptr<transducer::TransducerNetwork>> network =
        s->Factory()();
    if (!network.ok()) {
      report.Check("cross-check network builds", false,
                   network.status().ToString());
    } else {
      net::FaultPlan plan =
          net::FaultPlan::Random(seed, net::FaultProfile::Chaos());
      transducer::RunOptions ro;
      ro.faults = &plan;
      const size_t steps_before = Trace::SpanCount("net.step");
      const size_t reorders_before = Trace::InstantCount("net.fault.reorder");
      const size_t crashes_before = Trace::InstantCount("net.fault.crash");
      const size_t partitions_before =
          Trace::InstantCount("net.fault.partition");
      Result<transducer::RunResult> run =
          transducer::RunToQuiescence(**network, ro);
      if (!run.ok()) {
        report.Check("cross-check run quiesces", false,
                     run.status().ToString());
      } else {
        report.Stats("cross_check_run", net::RunStatsToJson(run->stats));
        const size_t steps = Trace::SpanCount("net.step") - steps_before;
        report.Check(
            "net.step span count equals RunStats transitions",
            steps == run->stats.transitions,
            std::to_string(steps) + " spans vs " +
                std::to_string(run->stats.transitions) + " transitions");
        const net::FaultStats& fs = plan.stats();
        const size_t reorders =
            Trace::InstantCount("net.fault.reorder") - reorders_before;
        const size_t crashes =
            Trace::InstantCount("net.fault.crash") - crashes_before;
        const size_t partitions =
            Trace::InstantCount("net.fault.partition") - partitions_before;
        report.Check("net.fault.* instants equal FaultStats counts",
                     reorders == fs.reorders && crashes == fs.crashes &&
                         partitions == fs.partitions,
                     "reorders " + std::to_string(reorders) + "/" +
                         std::to_string(fs.reorders) + ", crashes " +
                         std::to_string(crashes) + "/" +
                         std::to_string(fs.crashes) + ", partitions " +
                         std::to_string(partitions) + "/" +
                         std::to_string(fs.partitions));
      }
    }
  }

  return report.Finish(bench::WriteObservability(flags));
}
