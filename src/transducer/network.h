#ifndef CALM_TRANSDUCER_NETWORK_H_
#define CALM_TRANSDUCER_NETWORK_H_

#include <map>
#include <vector>

#include "base/instance.h"
#include "base/status.h"
#include "net/fault.h"
#include "net/message_buffer.h"
#include "transducer/policy.h"
#include "transducer/schema.h"
#include "transducer/transducer.h"

namespace calm::transducer {

// Delivery semantics for the simulator (arXiv:1405.7264's two models):
//   * kAsync — Section 4.1.3's fair runs: sends enter receiver buffers
//     immediately; a scheduler picks arbitrary submultisets to deliver.
//   * kBsp — bulk-synchronous supersteps: sends made during superstep k
//     are staged, the barrier (BspBarrier) flushes them, and they become
//     deliverable exactly at superstep k + 1. Coordination-free networks
//     must compute the same quiescent output under both.
enum class NetworkSemantics { kAsync, kBsp };

// "async", "bsp".
const char* NetworkSemanticsName(NetworkSemantics semantics);

// A transducer network (N, Upsilon, Pi, P) instantiated on an input: holds
// the distributed input dist_P(I), per-node states and message buffers, and
// implements the exact transition semantics of Section 4.1.3.
class TransducerNetwork {
 public:
  // `transducer` and `policy` must outlive the network.
  TransducerNetwork(Network nodes, const Transducer* transducer,
                    const DistributionPolicy* policy, ModelOptions model);

  // Distributes `input` and resets to the start configuration. Errors if the
  // schema is invalid, the network is empty, or the policy is required to be
  // domain-guided but is not (checked by callers where relevant).
  Status Initialize(const Instance& input);

  // One transition with active node `node`, delivering the buffer entries at
  // `delivery_indices` (empty = heartbeat). Updates state and buffers.
  // `delivery_indices` must be strictly increasing and in range for the
  // node's buffer *at the start of the transition* — anything else (a buggy
  // scheduler or fault plan) is rejected with InvalidArgument instead of
  // reaching undefined behaviour in the buffer.
  Status StepNode(Value node, const std::vector<size_t>& delivery_indices);

  // Convenience: heartbeat transition at `node`.
  Status Heartbeat(Value node) { return StepNode(node, {}); }

  const Network& nodes() const { return nodes_; }
  const ModelOptions& model() const { return model_; }
  // Per-node accessors. An unknown node, or any node before Initialize,
  // throws std::out_of_range.
  const Instance& local_input(Value node) const;
  const Instance& state(Value node) const;
  const net::MessageBuffer& buffer(Value node) const;
  net::MessageBuffer& mutable_buffer(Value node);
  // All buffers, indexed like nodes() — the scheduler's view, exposed
  // directly so the runner need not copy the entry lists every transition.
  const std::vector<net::MessageBuffer>& buffers() const { return buffers_; }

  // out(R): union over nodes of the state restricted to the out schema.
  Instance GlobalOutput() const;

  // Attaches a fault-injection channel between the send path and the
  // buffers (nullptr = perfect network). The plan is (re)bound to this
  // network immediately and on every Initialize; it must outlive the runs.
  void set_fault_plan(net::FaultPlan* faults);
  net::FaultPlan* fault_plan() const { return faults_; }

  // Switches between async and bulk-synchronous delivery. Under kBsp,
  // StepNode stages every send instead of enqueueing it; the stage drains
  // into the receiver buffers only at BspBarrier, so a message sent during
  // superstep k is deliverable exactly from superstep k + 1 on. BSP runs
  // model a perfect network: StepNode rejects the combination of kBsp and
  // an attached fault plan (the fault channel's redelivery ticks have no
  // superstep meaning).
  void set_semantics(NetworkSemantics semantics) { semantics_ = semantics; }
  NetworkSemantics semantics() const { return semantics_; }

  // The superstep barrier: flushes every staged send into its receiver's
  // buffer. No-op under kAsync (nothing is ever staged).
  void BspBarrier();

  // Messages staged since the last barrier (kBsp only; 0 under kAsync).
  size_t StagedCount() const;

  // True when every buffer is empty (candidate quiescence; the runner also
  // requires a no-op round of heartbeats).
  bool BuffersEmpty() const;

  // BuffersEmpty plus: the fault channel holds no dropped/partitioned
  // messages awaiting redelivery, no crashed node still awaits its atomic
  // inbox replay, and no send sits staged behind the BSP barrier. The
  // runner's quiescence test — a message sitting in a retransmit queue, a
  // pending recovery, or the superstep stage is still in flight.
  bool Idle() const;

  // Whether the last StepNode changed any state or sent any message.
  bool last_step_changed() const { return last_step_changed_; }

  const net::RunStats& stats() const { return stats_; }

  // The system facts node `node` would see right now, built from scratch
  // (the reference StepNode's cached system facts are tested against).
  Result<Instance> SystemFactsFor(Value node, const Instance& delivered) const;

 private:
  size_t IndexOf(Value node) const;
  // Enqueues a (possibly fault-injected) delivery into its receiver buffer.
  void Inject(const net::FaultPlan::Delivery& delivery);
  // The system facts of node `index` over the ambient set `a` (ascending;
  // only read under the policy-aware model).
  Instance BuildSystemFacts(size_t index, const std::vector<Value>& a) const;
  // The system facts node `index` sees in a transition delivering
  // `delivered`: equal to SystemFactsFor, but rebuilt only when A changed.
  const Instance& CachedSystemFacts(size_t index, const Instance& delivered);
  // |GlobalOutput()|, counted by merging the nodes' tuple sets.
  size_t GlobalOutputSize() const;
  // Recomputes node_domains_[index] from the node's input and state.
  void RecomputeNodeDomain(size_t index);

  Network nodes_;
  const Transducer* transducer_;
  const DistributionPolicy* policy_;
  ModelOptions model_;

  net::FaultPlan* faults_ = nullptr;  // borrowed; nullptr = perfect network
  NetworkSemantics semantics_ = NetworkSemantics::kAsync;
  // kBsp: sends of the current superstep, per receiver, awaiting the
  // barrier. Flushed into buffers_ by BspBarrier.
  std::vector<std::vector<Fact>> staged_;
  // Per-node pending recovery delivery: a crashed node's durable inbox,
  // merged atomically into its next transition (write-ahead-log replay).
  std::vector<Instance> recovery_;
  std::map<Value, Instance> local_inputs_;
  std::map<Value, Instance> states_;  // over out + mem
  // Per node: adom(H(x) + s(x)), ascending — the part of A that persists
  // between transitions. Grown from each transition's insertions, and
  // recomputed after a memory deletion or a crash-restart. Maintained only
  // under the policy-aware model, the only one that reads A.
  std::vector<std::vector<Value>> node_domains_;
  // Per node: the system facts of its last transition and the ambient set
  // A they were built over. They depend only on (node, A) — and not on A
  // at all outside the policy-aware model — so they are rebuilt only when
  // A changes. Reset by Initialize.
  struct SystemCache {
    bool valid = false;
    std::vector<Value> domain;  // A, ascending
    Instance facts;
  };
  std::vector<SystemCache> system_cache_;
  std::vector<net::MessageBuffer> buffers_;
  net::RunStats stats_;
  bool last_step_changed_ = false;
  uint64_t tick_ = 0;
};

}  // namespace calm::transducer

#endif  // CALM_TRANSDUCER_NETWORK_H_
