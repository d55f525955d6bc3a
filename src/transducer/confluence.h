#ifndef CALM_TRANSDUCER_CONFLUENCE_H_
#define CALM_TRANSDUCER_CONFLUENCE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/json.h"
#include "net/fault.h"
#include "transducer/network.h"
#include "transducer/runner.h"

namespace calm::transducer {

// ---------------------------------------------------------------------------
// Confluence oracle (Section 4.1.3): a coordination-free transducer network
// must reach the *same* quiescent output under every fair run. The oracle
// hammers one (transducer, policy, input) with N seeded fault plans crossed
// with every scheduler, asserts output equality against the faultless
// round-robin reference, and — on divergence — delta-debugs the fault
// schedule down to a locally minimal, deterministically replayable witness.
// ---------------------------------------------------------------------------

// Builds a fresh, Initialize()d network for one run. Called once per run;
// must be safe to call concurrently (each call returns an independent
// network; shared transducer/policy/query objects are only read).
using NetworkFactory =
    std::function<Result<std::unique_ptr<TransducerNetwork>>()>;

struct ConfluenceOptions {
  // Seeded fault plans per scheduler kind (total runs = plans x schedulers).
  size_t fault_plans = 16;
  uint64_t seed = 1;
  net::FaultProfile profile = net::FaultProfile::Chaos();
  std::vector<RunOptions::SchedulerKind> schedulers = {
      RunOptions::SchedulerKind::kRoundRobin,
      RunOptions::SchedulerKind::kRandom,
      RunOptions::SchedulerKind::kAdversarialDelay};
  size_t max_transitions = 200000;
  uint64_t max_delay = 16;     // fairness bound handed to the schedulers
  bool shrink = true;          // delta-debug diverging fault schedules
  size_t max_divergences = 4;  // stop collecting witnesses after this many
  size_t threads = 0;          // 0 = serial; otherwise ParallelFor over runs
};

// One divergence, shrunk (when requested) and re-run for its final trace.
struct DivergenceWitness {
  RunOptions::SchedulerKind scheduler = RunOptions::SchedulerKind::kRoundRobin;
  uint64_t plan_seed = 0;
  size_t original_events = 0;  // decision-log length before shrinking
  std::vector<net::FaultEvent> events;  // the (shrunk) fault schedule
  Instance observed;                    // diverging output
  bool quiesced = true;  // false: the divergence is a missed quiescence
  std::vector<net::Scheduler::Choice> choices;  // schedule of the final run
  net::FaultStats fault_stats;
};

struct ConfluenceReport {
  Instance reference;  // faultless round-robin output
  size_t runs = 0;
  size_t faulted_runs = 0;  // runs whose plan injected at least one fault
  net::FaultStats total_faults;
  std::vector<DivergenceWitness> divergences;
  bool confluent() const { return divergences.empty(); }
};

// Runs the oracle. Errors only on infrastructure failure (factory error, a
// run rejected by the network); divergence is reported, not an error.
Result<ConfluenceReport> CheckConfluence(const NetworkFactory& make_network,
                                         const ConfluenceOptions& options);

// ddmin over a fault-event schedule: repeatedly re-runs `base` (with
// `faults` replaced by Scripted(subset)) and keeps the smallest subset that
// still diverges from `expected`. The result is 1-minimal: removing any
// single remaining event restores confluence. `max_runs` bounds the search.
Result<std::vector<net::FaultEvent>> ShrinkDivergence(
    const NetworkFactory& make_network, const Instance& expected,
    const RunOptions& base, const std::vector<net::FaultEvent>& events,
    size_t max_runs = 512);

// ---------------------------------------------------------------------------
// Record/replay traces. A trace pins everything a run depends on — scenario
// identity, input, scheduler, fault schedule — so a confluence failure ships
// as a small JSON artifact that re-executes deterministically.
// ---------------------------------------------------------------------------

struct TraceRecord {
  int version = 1;
  std::string scenario;  // catalog name (bench/bench_fault_confluence.cc)
  std::string policy;    // "hash" | "domain-hash" | "all-to-one"
  uint64_t policy_salt = 0;
  std::string model;  // ModelOptions::ToString()
  std::vector<uint64_t> nodes;  // node ids (integer domain values)
  std::vector<Fact> input;      // the distributed input instance
  RunOptions::SchedulerKind scheduler = RunOptions::SchedulerKind::kRoundRobin;
  uint64_t scheduler_seed = 0;
  double deliver_prob = 0.5;
  uint64_t max_delay = 16;
  size_t max_transitions = 200000;
  std::vector<net::FaultEvent> events;
  std::vector<net::Scheduler::Choice> choices;  // for inspection/debugging
  std::vector<Fact> expected_output;            // faultless reference
  std::vector<Fact> observed_output;            // what the diverging run made
};

// The RunOptions a trace describes (faults excluded; attach a Scripted plan).
RunOptions TraceRunOptions(const TraceRecord& trace);

// JSON round-trip. Serialization requires every value in facts to be an
// integer (symbols have no stable cross-process id) and errors otherwise.
Result<std::string> SerializeTrace(const TraceRecord& trace);
Result<TraceRecord> ParseTrace(const std::string& json_text);

// Re-executes `trace` on a network from `make_network` with the scripted
// fault schedule and reports whether the recorded observation reproduced.
struct ReplayOutcome {
  RunResult result;
  bool reproduced_output = false;   // run output == trace.observed_output
  bool reproduced_choices = false;  // schedule matched (when trace has one)
  bool diverged = false;            // run output != trace.expected_output
};
Result<ReplayOutcome> ReplayTrace(const NetworkFactory& make_network,
                                  const TraceRecord& trace);

}  // namespace calm::transducer

#endif  // CALM_TRANSDUCER_CONFLUENCE_H_
