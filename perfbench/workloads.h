#ifndef CALM_PERFBENCH_WORKLOADS_H_
#define CALM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "base/status.h"
#include "net/fault.h"
#include "net/message_buffer.h"
#include "trace.h"

namespace calm::perfbench {

// One benchmark workload: a fixed list of items, built from a seed, that the
// benchmark runs in whole passes as a closed loop (the next item starts when the
// previous one returns). Every item checks its own oracle.
class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the inputs and reference outputs for `seed`, replacing any
  // earlier set-up. It is called several times to time set-up.
  virtual Status Setup(uint64_t seed) = 0;
  virtual size_t items() const = 0;
  virtual std::string ItemName(size_t k) const = 0;

  // Timed and traced passes run at 1 checker thread (traced ones so that
  // layer times add up to wall time); the traced run's pool-utilization
  // pass runs at pool_threads().
  virtual size_t pool_threads() const { return 1; }
  virtual void SetThreads(size_t threads) = 0;

  // Runs item `k`. With a tracer, calls go through the forwarding wrappers
  // under spans, and the result must be byte-identical to the last untraced
  // run of the same item. Returns false, with a reason, when an oracle
  // fails or the item errors.
  virtual bool Run(size_t k, Tracer* tracer, std::string* why) = 0;

  // Pass-level oracles, checked after every item of a pass ran once.
  // Returns how many items they fail.
  virtual size_t EndPass(std::string* why) {
    (void)why;
    return 0;
  }

  // Layer numbers the workload measures itself: set-up layers (timed by the
  // last Setup) and run statistics of the traced pass. Names follow
  // BENCHMARK.json's per_layer list.
  virtual void LayerMetrics(std::map<std::string, double>* out) const {
    (void)out;
  }
  // Clears the traced-pass statistics LayerMetrics reports.
  virtual void ResetLayerMetrics() {}

  // A digest of the last pass's outputs, for pinning ("" if none).
  virtual std::string PassDigest() const { return ""; }
};

// Transducer run statistics summed over a traced pass.
struct NetTally {
  uint64_t transitions = 0;
  uint64_t heartbeats = 0;
  uint64_t messages_sent = 0;
  uint64_t faults = 0;

  void Add(const net::RunStats& s) {
    transitions += s.transitions;
    heartbeats += s.heartbeats;
    messages_sent += s.messages_sent;
  }
  void AddFaults(const net::FaultStats& f) {
    faults += f.duplicates + f.drops + f.reorders + f.partitions + f.crashes;
  }
  void Report(std::map<std::string, double>* out) const {
    (*out)["net.transitions"] = static_cast<double>(transitions);
    (*out)["net.messages_sent"] = static_cast<double>(messages_sent);
    (*out)["net.heartbeat_ratio"] =
        transitions == 0 ? 0 : static_cast<double>(heartbeats) / transitions;
    (*out)["net.faults_injected"] = static_cast<double>(faults);
  }
};

struct WorkloadOptions {
  // survey: classify one mislabeled program as an extra item (the negative
  // control; its oracle must fail).
  bool negative_control = false;
  // survey: "<seed> <digest>" lines pinning each seed's pass digest.
  std::string pinned_digests;
};

std::unique_ptr<Workload> MakeSurvey(const WorkloadOptions& options);
std::unique_ptr<Workload> MakeDeepSweep(const WorkloadOptions& options);
std::unique_ptr<Workload> MakeNetwork(const WorkloadOptions& options);

// splitmix64 finalizer over (seed, k) — the same mix the fuzzer uses to
// derive per-program seeds, so a replay reproduces its inputs.
uint64_t MixSeed(uint64_t seed, uint64_t k);

// FNV-1a 64 over `text`, as 16 hex digits.
std::string Digest(const std::string& text);

}  // namespace calm::perfbench

#endif  // CALM_PERFBENCH_WORKLOADS_H_
