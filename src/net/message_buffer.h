#ifndef CALM_NET_MESSAGE_BUFFER_H_
#define CALM_NET_MESSAGE_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "base/fact.h"
#include "base/instance.h"
#include "base/json.h"

namespace calm::net {

// A node's incoming message buffer: a *multiset* of facts (Section 4.1.3 —
// the same message can be in flight multiple times). Entries remember the
// tick at which they were enqueued so schedulers can bound delays (fairness
// condition (ii): no message is delayed forever).
class MessageBuffer {
 public:
  struct Entry {
    Fact fact;
    uint64_t enqueued_at = 0;
  };

  void Add(Fact fact, uint64_t tick) {
    entries_.push_back(Entry{std::move(fact), tick});
  }

  // Inserts at `position` (clamped to the end) instead of the back — the
  // reordering fault (net/fault.h). `enqueued_at` keeps the true tick so
  // delay bounds, and hence fairness, survive reordering.
  void InsertAt(size_t position, Fact fact, uint64_t tick) {
    position = std::min(position, entries_.size());
    entries_.insert(entries_.begin() + static_cast<ptrdiff_t>(position),
                    Entry{std::move(fact), tick});
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

  // Removes the entries at `indices` (strictly increasing) and returns the
  // delivered submultiset collapsed to a set (the transition's M). One pass
  // over the buffer plus a sort of the taken facts:
  // O(|buffer| + |M| log |M|).
  Instance TakeCollapsed(const std::vector<size_t>& indices);

  // Indices of every entry (deliver-all).
  std::vector<size_t> AllIndices() const;

  // Indices of entries enqueued at or before `tick` (for delay bounding).
  std::vector<size_t> IndicesOlderThan(uint64_t tick) const;

 private:
  std::vector<Entry> entries_;
};

// Statistics of a simulated run.
struct RunStats {
  size_t transitions = 0;
  size_t heartbeats = 0;          // transitions delivering no messages
  size_t messages_sent = 0;       // buffer insertions (fact x recipient)
  size_t messages_delivered = 0;  // buffer removals
  size_t output_facts = 0;
  // Transition index at which the final output fact appeared (0 if none).
  size_t output_complete_at = 0;
};

// The canonical serialization: {"transitions": 12, "heartbeats": 3, ...}.
// Every other rendering of RunStats (the k=v string below, bench --json
// sections) is derived from this object, so the human-readable and the
// machine-readable reports can never drift apart.
Json RunStatsToJson(const RunStats& stats);

// "transitions=12 heartbeats=3 sent=8 delivered=8 output_facts=4 ..." — used
// by error messages (RunOptions::fail_on_budget) and the bench reports.
// Derived from RunStatsToJson by walking its members in order.
std::string RunStatsToString(const RunStats& stats);

}  // namespace calm::net

#endif  // CALM_NET_MESSAGE_BUFFER_H_
