#ifndef CALM_NET_FAULT_H_
#define CALM_NET_FAULT_H_

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "base/fact.h"
#include "base/instance.h"

namespace calm::net {

// ---------------------------------------------------------------------------
// Fault model (see DESIGN.md, "Fault model & confluence oracle").
//
// A FaultPlan is a channel that sits between StepNode's send path and the
// receivers' MessageBuffers. Per message — driven by a seeded RNG or an
// explicit script — it can
//   * duplicate:            enqueue k copies instead of one;
//   * reorder:              insert at an arbitrary buffer position;
//   * drop-with-retransmit: drop up to max_drops transmissions, the sender
//                           retries with bounded backoff, after which the
//                           message is forced through;
//   * partition-then-heal:  hold every message between a node pair for a
//                           bounded window, releasing all of it at heal time;
// plus, at the node level,
//   * crash-restart:        reset a node's state to the start configuration;
//                           its local input is intact, its in-flight buffer
//                           is preserved, and its durable inbox (every
//                           message it ever consumed) is replayed
//                           *atomically* into the node's next transition —
//                           the write-ahead-log recovery model. Atomicity
//                           matters: replaying through the buffer would let
//                           the scheduler split the inbox into arbitrary
//                           sub-deliveries, which breaks causal order (a
//                           node could see an `ok` without the transfers
//                           that causally preceded it) and makes the
//                           Theorem 4.4 protocol unsound under crashes.
//
// The durable inboxes live in memory: crash-restart is simulated, so
// "durable" only has to survive the simulated crash.
//
// Every fault is fairness-preserving: nothing is lost forever and every
// hold-up is bounded (MaxHoldup), so Section 4.1.3's fair-run requirements
// still hold and quiescence is still reached. Duplication/reordering are
// already inside the paper's run nondeterminism (buffers are multisets and
// the scheduler picks arbitrary submultisets); drop-with-retransmit,
// partitions, and crash-restart are honest extensions.
// ---------------------------------------------------------------------------

// Bounds and probabilities for randomly generated fault plans.
struct FaultProfile {
  double duplicate_prob = 0.15;     // per send occurrence
  size_t max_copies = 3;            // total copies enqueued when duplicating

  double drop_prob = 0.15;          // per transmission attempt
  uint64_t retransmit_backoff = 4;  // ticks between sender retries
  size_t max_drops = 3;             // attempts after which delivery is forced

  double reorder_prob = 0.25;       // insert at a random buffer position
  size_t reorder_span = 8;          // positions drawn from [0, reorder_span]

  double partition_prob = 0.02;     // per transition: open a partition
  uint64_t partition_window = 12;   // ticks until the partition heals
  size_t max_partitions = 2;        // per run

  double crash_prob = 0.01;         // per transition: crash-restart a node
  size_t max_crashes = 1;           // per run
  uint64_t crash_after = 4;         // no crashes before this tick

  // Worst-case extra latency any single send can suffer: the full retry
  // chain, inside a partition window. The fairness property tests assert
  // every message is enqueued within this bound of its original send.
  uint64_t MaxHoldup() const {
    return max_drops * retransmit_backoff + partition_window;
  }

  // Profiles used by tests/benches: everything on, and single-fault slices.
  static FaultProfile Chaos();           // all five faults, elevated rates
  static FaultProfile DuplicationOnly(double prob = 0.5);
  static FaultProfile DropOnly(double prob = 0.5);
  static FaultProfile None();
};

// One fault decision, as applied. A run's decision log() doubles as an
// explicit script: replaying the same scenario with FaultPlan::Scripted(log)
// reproduces the run exactly (no RNG is consulted in scripted mode), and the
// delta-debugging shrinker works by re-running subsets of the log.
struct FaultEvent {
  enum class Kind : uint8_t { kDuplicate, kDrop, kReorder, kPartition, kCrash };
  Kind kind = Kind::kDuplicate;

  // kDuplicate / kDrop / kReorder: which send occurrence. Send occurrences
  // — (fact, receiver) pairs leaving StepNode — are numbered globally from
  // 0 in deterministic order, so a seq identifies one message copy.
  uint64_t send_seq = 0;
  size_t copies = 0;        // kDuplicate: total copies enqueued
  uint64_t deliver_at = 0;  // kDrop: tick the retransmission finally lands
  size_t attempts = 0;      // kDrop: transmissions dropped before that
  size_t position = 0;      // kReorder: buffer insert position (clamped)

  uint64_t tick = 0;    // kPartition / kCrash: transition tick it fires
  uint64_t window = 0;  // kPartition: ticks until heal
  size_t node_a = 0;    // kPartition: the separated pair (indices)
  size_t node_b = 0;
  size_t node = 0;  // kCrash: the restarted node (index)

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

// "duplicate", "drop", "reorder", "partition", "crash".
const char* FaultKindName(FaultEvent::Kind kind);

struct FaultStats {
  size_t duplicates = 0;       // extra copies enqueued
  size_t drops = 0;            // dropped transmission attempts
  size_t retransmits = 0;      // dropped sends eventually delivered
  size_t reorders = 0;         // out-of-position insertions
  size_t partitions = 0;       // partition windows opened
  size_t partition_holds = 0;  // sends held behind a partition
  size_t crashes = 0;          // node crash-restarts
};

// The fault-injection channel. TransducerNetwork calls the On*/Begin* hooks;
// everything else is observation (log, stats) or construction.
class FaultPlan {
 public:
  // Decisions drawn per send / per transition from a seeded RNG. Two plans
  // with the same seed driven by the same call sequence make identical
  // decisions, so a run is deterministic given (seed, profile).
  static FaultPlan Random(uint64_t seed, FaultProfile profile = {});

  // Replays an explicit decision list (typically a previous run's log()).
  static FaultPlan Scripted(std::vector<FaultEvent> events);

  FaultPlan(FaultPlan&&) = default;
  FaultPlan& operator=(FaultPlan&&) = default;

  // -- hooks called by TransducerNetwork ------------------------------------

  // Resets per-run state; called from TransducerNetwork when the plan is
  // attached and again on Initialize.
  void BindNetwork(size_t node_count);

  // A message becoming visible to a receiver, possibly at an explicit
  // buffer position (reordering).
  struct Delivery {
    size_t receiver = 0;
    Fact fact;
    bool has_position = false;
    size_t position = 0;
  };

  // Start of transition `tick`: appends messages now due for (re)delivery
  // and the nodes that crash-restart before this step. A crashed node's
  // durable inbox is NOT appended here — the network fetches it via
  // InboxOf and replays it atomically (see the crash-restart note above).
  void BeginTransition(uint64_t tick, std::vector<Delivery>* deliveries,
                       std::vector<size_t>* crashes);

  // The durable inbox of `node`: every fact it ever consumed. Replayed as
  // one atomic recovery delivery after a crash-restart.
  const Instance& InboxOf(size_t node) const { return inbox_[node]; }

  // One send occurrence sender -> receiver at `tick`. Appends the copies to
  // enqueue *now*; dropped / partitioned sends are held inside the plan and
  // come back through BeginTransition when due.
  void OnSend(size_t sender, size_t receiver, const Fact& fact, uint64_t tick,
              std::vector<Delivery>* deliveries);

  // Node `receiver` consumed `facts` (maintains the durable inbox replayed
  // on crash-restart).
  void OnDeliver(size_t receiver, const Instance& facts);

  // True while dropped/partitioned messages are still held inside the plan;
  // the runner must not declare quiescence before this drains.
  bool HasPendingMessages() const { return !held_.empty(); }

  // Decisions actually applied this run, in application order.
  const std::vector<FaultEvent>& log() const { return log_; }
  const FaultStats& stats() const { return stats_; }
  uint64_t seed() const { return seed_; }
  bool scripted() const { return scripted_; }

 private:
  FaultPlan() = default;

  struct Held {
    uint64_t due = 0;
    size_t receiver = 0;
    Fact fact;
  };
  struct Partition {
    size_t a = 0;
    size_t b = 0;
    uint64_t until = 0;  // first tick at which the pair is reconnected
  };

  // The heal tick of an active partition separating the pair, or 0.
  uint64_t PartitionedUntil(size_t sender, size_t receiver) const;
  void OpenPartition(size_t a, size_t b, uint64_t tick, uint64_t window);
  void CrashNode(size_t node, uint64_t tick, std::vector<size_t>* crashes);

  bool scripted_ = false;
  uint64_t seed_ = 0;
  FaultProfile profile_;
  std::mt19937_64 rng_;

  // Scripted decisions, indexed for O(1) per-send lookup. Partition and
  // crash events fire at the first transition at/after their recorded tick.
  std::map<uint64_t, FaultEvent> dup_by_seq_;
  std::map<uint64_t, FaultEvent> drop_by_seq_;
  std::map<uint64_t, FaultEvent> reorder_by_seq_;
  std::vector<FaultEvent> scripted_timed_;  // partitions + crashes, by tick
  size_t next_timed_ = 0;

  size_t node_count_ = 0;
  uint64_t send_seq_ = 0;
  std::vector<Held> held_;
  std::vector<Partition> active_partitions_;
  size_t partitions_opened_ = 0;
  size_t crashes_done_ = 0;
  std::vector<Instance> inbox_;
  std::vector<FaultEvent> log_;
  FaultStats stats_;
};

}  // namespace calm::net

#endif  // CALM_NET_FAULT_H_
