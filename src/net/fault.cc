#include "net/fault.h"

#include <algorithm>

#include "base/metrics.h"
#include "base/trace.h"

namespace calm::net {

namespace {

// Every fault-event site also bumps a per-kind counter (when the registry is
// listening) so metrics and the event log can be cross-checked.
void CountFault(FaultEvent::Kind kind) {
  if (!MetricsEnabled()) return;
  MetricRegistry::Global()
      .GetCounter("calm.net.faults", {{"kind", FaultKindName(kind)}})
      .Increment();
}

}  // namespace

const char* FaultKindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kDuplicate:
      return "duplicate";
    case FaultEvent::Kind::kDrop:
      return "drop";
    case FaultEvent::Kind::kReorder:
      return "reorder";
    case FaultEvent::Kind::kPartition:
      return "partition";
    case FaultEvent::Kind::kCrash:
      return "crash";
  }
  return "unknown";
}

FaultProfile FaultProfile::Chaos() {
  FaultProfile p;
  p.duplicate_prob = 0.25;
  p.drop_prob = 0.25;
  p.reorder_prob = 0.35;
  p.partition_prob = 0.05;
  p.crash_prob = 0.02;
  return p;
}

FaultProfile FaultProfile::DuplicationOnly(double prob) {
  FaultProfile p = None();
  p.duplicate_prob = prob;
  return p;
}

FaultProfile FaultProfile::DropOnly(double prob) {
  FaultProfile p = None();
  p.drop_prob = prob;
  return p;
}

FaultProfile FaultProfile::None() {
  FaultProfile p;
  p.duplicate_prob = 0;
  p.drop_prob = 0;
  p.reorder_prob = 0;
  p.partition_prob = 0;
  p.crash_prob = 0;
  return p;
}

FaultPlan FaultPlan::Random(uint64_t seed, FaultProfile profile) {
  FaultPlan plan;
  plan.scripted_ = false;
  plan.seed_ = seed;
  plan.profile_ = profile;
  plan.rng_.seed(seed);
  return plan;
}

FaultPlan FaultPlan::Scripted(std::vector<FaultEvent> events) {
  FaultPlan plan;
  plan.scripted_ = true;
  for (FaultEvent& e : events) {
    switch (e.kind) {
      case FaultEvent::Kind::kDuplicate:
        plan.dup_by_seq_[e.send_seq] = e;
        break;
      case FaultEvent::Kind::kDrop:
        plan.drop_by_seq_[e.send_seq] = e;
        break;
      case FaultEvent::Kind::kReorder:
        plan.reorder_by_seq_[e.send_seq] = e;
        break;
      case FaultEvent::Kind::kPartition:
      case FaultEvent::Kind::kCrash:
        plan.scripted_timed_.push_back(e);
        break;
    }
  }
  std::stable_sort(plan.scripted_timed_.begin(), plan.scripted_timed_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.tick < b.tick;
                   });
  return plan;
}

void FaultPlan::BindNetwork(size_t node_count) {
  node_count_ = node_count;
  send_seq_ = 0;
  held_.clear();
  active_partitions_.clear();
  partitions_opened_ = 0;
  crashes_done_ = 0;
  next_timed_ = 0;
  inbox_.assign(node_count, Instance());
  log_.clear();
  stats_ = FaultStats();
  if (!scripted_) rng_.seed(seed_);  // rebinding restarts the decision stream
}

uint64_t FaultPlan::PartitionedUntil(size_t sender, size_t receiver) const {
  for (const Partition& p : active_partitions_) {
    if ((p.a == sender && p.b == receiver) ||
        (p.a == receiver && p.b == sender)) {
      return p.until;
    }
  }
  return 0;
}

void FaultPlan::OpenPartition(size_t a, size_t b, uint64_t tick,
                              uint64_t window) {
  active_partitions_.push_back(Partition{a, b, tick + window});
  ++partitions_opened_;
  ++stats_.partitions;
  FaultEvent e;
  e.kind = FaultEvent::Kind::kPartition;
  e.tick = tick;
  e.window = window;
  e.node_a = a;
  e.node_b = b;
  log_.push_back(e);
  Trace::Instant("net.fault.partition", {{"tick", static_cast<int64_t>(tick)},
                                         {"node_a", static_cast<int64_t>(a)},
                                         {"node_b", static_cast<int64_t>(b)},
                                         {"window",
                                          static_cast<int64_t>(window)}});
  CountFault(FaultEvent::Kind::kPartition);
}

void FaultPlan::CrashNode(size_t node, uint64_t tick,
                          std::vector<size_t>* crashes) {
  crashes->push_back(node);
  ++crashes_done_;
  ++stats_.crashes;
  FaultEvent e;
  e.kind = FaultEvent::Kind::kCrash;
  e.tick = tick;
  e.node = node;
  log_.push_back(e);
  Trace::Instant("net.fault.crash", {{"tick", static_cast<int64_t>(tick)},
                                     {"node", static_cast<int64_t>(node)}});
  CountFault(FaultEvent::Kind::kCrash);
  // The durable inbox (everything the node ever consumed) is replayed by
  // the network as one atomic recovery delivery — see InboxOf.
}

void FaultPlan::BeginTransition(uint64_t tick,
                                std::vector<Delivery>* deliveries,
                                std::vector<size_t>* crashes) {
  // Release held messages now due, preserving hold order.
  size_t kept = 0;
  for (size_t i = 0; i < held_.size(); ++i) {
    if (held_[i].due <= tick) {
      deliveries->push_back(
          Delivery{held_[i].receiver, std::move(held_[i].fact), false, 0});
    } else {
      if (kept != i) held_[kept] = std::move(held_[i]);
      ++kept;
    }
  }
  held_.resize(kept);

  // Heal expired partitions.
  active_partitions_.erase(
      std::remove_if(active_partitions_.begin(), active_partitions_.end(),
                     [&](const Partition& p) { return p.until <= tick; }),
      active_partitions_.end());

  if (scripted_) {
    while (next_timed_ < scripted_timed_.size() &&
           scripted_timed_[next_timed_].tick <= tick) {
      const FaultEvent& e = scripted_timed_[next_timed_++];
      if (e.kind == FaultEvent::Kind::kCrash) {
        if (e.node < node_count_) CrashNode(e.node, tick, crashes);
      } else if (e.node_a < node_count_ && e.node_b < node_count_) {
        OpenPartition(e.node_a, e.node_b, tick, e.window);
      }
    }
    return;
  }

  // Random mode. Decision order per transition is fixed (crash roll, then
  // partition roll) so a (seed, profile) pair fully determines the run.
  if (node_count_ > 0 && crashes_done_ < profile_.max_crashes &&
      profile_.crash_prob > 0 && tick >= profile_.crash_after) {
    std::bernoulli_distribution roll(profile_.crash_prob);
    if (roll(rng_)) {
      std::uniform_int_distribution<size_t> pick(0, node_count_ - 1);
      CrashNode(pick(rng_), tick, crashes);
    }
  }
  if (node_count_ > 1 && partitions_opened_ < profile_.max_partitions &&
      profile_.partition_prob > 0) {
    std::bernoulli_distribution roll(profile_.partition_prob);
    if (roll(rng_)) {
      std::uniform_int_distribution<size_t> pick_a(0, node_count_ - 1);
      std::uniform_int_distribution<size_t> pick_b(0, node_count_ - 2);
      size_t a = pick_a(rng_);
      size_t b = pick_b(rng_);
      if (b >= a) ++b;
      OpenPartition(a, b, tick, profile_.partition_window);
    }
  }
}

void FaultPlan::OnSend(size_t sender, size_t receiver, const Fact& fact,
                       uint64_t tick, std::vector<Delivery>* deliveries) {
  uint64_t seq = send_seq_++;

  // A partition dominates every per-message fault: the send is held until
  // the heal tick, then delivered unmodified.
  uint64_t until = PartitionedUntil(sender, receiver);
  if (until > 0) {
    held_.push_back(Held{until, receiver, fact});
    ++stats_.partition_holds;
    Trace::Instant("net.fault.partition_hold",
                   {{"send_seq", static_cast<int64_t>(seq)},
                    {"tick", static_cast<int64_t>(tick)},
                    {"receiver", static_cast<int64_t>(receiver)},
                    {"until", static_cast<int64_t>(until)}});
    return;
  }

  // Drop-with-retransmit: the sender's retry queue with bounded backoff.
  // The whole retry chain is decided up front — each attempt drops
  // independently, at most max_drops times — so the final landing tick is
  // known and bounded (fairness).
  size_t attempts = 0;
  uint64_t deliver_at = 0;
  if (scripted_) {
    auto it = drop_by_seq_.find(seq);
    if (it != drop_by_seq_.end()) {
      attempts = it->second.attempts;
      deliver_at = it->second.deliver_at;
    }
  } else if (profile_.drop_prob > 0 && profile_.max_drops > 0) {
    std::bernoulli_distribution drop(profile_.drop_prob);
    while (attempts < profile_.max_drops && drop(rng_)) ++attempts;
    if (attempts > 0) {
      deliver_at = tick + attempts * profile_.retransmit_backoff;
    }
  }
  if (attempts > 0) {
    held_.push_back(Held{deliver_at, receiver, fact});
    stats_.drops += attempts;
    ++stats_.retransmits;
    FaultEvent e;
    e.kind = FaultEvent::Kind::kDrop;
    e.send_seq = seq;
    e.deliver_at = deliver_at;
    e.attempts = attempts;
    log_.push_back(e);
    Trace::Instant("net.fault.drop",
                   {{"send_seq", static_cast<int64_t>(seq)},
                    {"tick", static_cast<int64_t>(tick)},
                    {"attempts", static_cast<int64_t>(attempts)},
                    {"deliver_at", static_cast<int64_t>(deliver_at)}});
    CountFault(FaultEvent::Kind::kDrop);
    return;
  }

  // Duplication: k copies in flight at once.
  size_t copies = 1;
  if (scripted_) {
    auto it = dup_by_seq_.find(seq);
    if (it != dup_by_seq_.end()) copies = std::max<size_t>(it->second.copies, 1);
  } else if (profile_.duplicate_prob > 0 && profile_.max_copies >= 2) {
    std::bernoulli_distribution roll(profile_.duplicate_prob);
    if (roll(rng_)) {
      copies = 2;
      if (profile_.max_copies > 2) {
        std::uniform_int_distribution<size_t> extra(0, profile_.max_copies - 2);
        copies += extra(rng_);
      }
    }
  }
  if (copies > 1) {
    stats_.duplicates += copies - 1;
    FaultEvent e;
    e.kind = FaultEvent::Kind::kDuplicate;
    e.send_seq = seq;
    e.copies = copies;
    log_.push_back(e);
    Trace::Instant("net.fault.duplicate",
                   {{"send_seq", static_cast<int64_t>(seq)},
                    {"tick", static_cast<int64_t>(tick)},
                    {"copies", static_cast<int64_t>(copies)}});
    CountFault(FaultEvent::Kind::kDuplicate);
  }

  // Reordering: insert at an arbitrary position instead of the back.
  bool has_position = false;
  size_t position = 0;
  if (scripted_) {
    auto it = reorder_by_seq_.find(seq);
    if (it != reorder_by_seq_.end()) {
      has_position = true;
      position = it->second.position;
    }
  } else if (profile_.reorder_prob > 0) {
    std::bernoulli_distribution roll(profile_.reorder_prob);
    if (roll(rng_)) {
      std::uniform_int_distribution<size_t> pick(0, profile_.reorder_span);
      has_position = true;
      position = pick(rng_);
    }
  }
  if (has_position) {
    ++stats_.reorders;
    FaultEvent e;
    e.kind = FaultEvent::Kind::kReorder;
    e.send_seq = seq;
    e.position = position;
    log_.push_back(e);
    Trace::Instant("net.fault.reorder",
                   {{"send_seq", static_cast<int64_t>(seq)},
                    {"tick", static_cast<int64_t>(tick)},
                    {"position", static_cast<int64_t>(position)}});
    CountFault(FaultEvent::Kind::kReorder);
  }

  for (size_t c = 0; c < copies; ++c) {
    deliveries->push_back(Delivery{receiver, fact, has_position, position});
  }
}

void FaultPlan::OnDeliver(size_t receiver, const Instance& facts) {
  if (receiver >= inbox_.size()) return;
  Instance& inbox = inbox_[receiver];
  facts.ForEachFact(
      [&](uint32_t name, const Tuple& t) { inbox.Insert(Fact(name, t)); });
}

}  // namespace calm::net
