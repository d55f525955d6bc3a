#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "net/message_buffer.h"
#include "net/scheduler.h"

namespace calm::net {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }
Fact F(uint64_t a) { return Fact("M", {V(a)}); }

TEST(MessageBufferTest, AddAndTakeCollapses) {
  MessageBuffer buf;
  buf.Add(F(1), 0);
  buf.Add(F(1), 1);  // duplicate in flight
  buf.Add(F(2), 2);
  EXPECT_EQ(buf.size(), 3u);
  Instance delivered = buf.TakeCollapsed({0, 1});
  EXPECT_EQ(delivered.size(), 1u);  // multiset collapsed to a set
  EXPECT_TRUE(delivered.Contains(F(1)));
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.entries()[0].fact, F(2));
}

TEST(MessageBufferTest, TakeSubsetPreservesOthers) {
  MessageBuffer buf;
  for (uint64_t i = 0; i < 5; ++i) buf.Add(F(i), i);
  Instance delivered = buf.TakeCollapsed({1, 3});
  EXPECT_EQ(delivered.size(), 2u);
  EXPECT_EQ(buf.size(), 3u);
  // Remaining entries are 0, 2, 4.
  std::set<uint64_t> left;
  for (const auto& e : buf.entries()) left.insert(e.fact.args[0].payload());
  EXPECT_EQ(left, (std::set<uint64_t>{0, 2, 4}));
}

TEST(MessageBufferTest, AllIndicesAndAging) {
  MessageBuffer buf;
  buf.Add(F(1), 5);
  buf.Add(F(2), 10);
  EXPECT_EQ(buf.AllIndices().size(), 2u);
  EXPECT_EQ(buf.IndicesOlderThan(5).size(), 1u);
  EXPECT_EQ(buf.IndicesOlderThan(10).size(), 2u);
  EXPECT_EQ(buf.IndicesOlderThan(4).size(), 0u);
}

TEST(MessageBufferTest, InsertAtPositionsAndClamps) {
  MessageBuffer buf;
  buf.Add(F(1), 0);
  buf.Add(F(2), 1);
  buf.InsertAt(0, F(3), 2);  // front
  buf.InsertAt(2, F(4), 3);  // middle
  buf.InsertAt(99, F(5), 4);  // past the end: clamped to back
  std::vector<uint64_t> order;
  for (const auto& e : buf.entries()) order.push_back(e.fact.args[0].payload());
  EXPECT_EQ(order, (std::vector<uint64_t>{3, 1, 4, 2, 5}));
  // The true enqueue tick survives reordering (fairness bookkeeping).
  EXPECT_EQ(buf.entries()[0].enqueued_at, 2u);
  EXPECT_EQ(buf.IndicesOlderThan(1).size(), 2u);  // F(1)@0 and F(2)@1 only
}

// TakeCollapsed against the obvious reference: erase the chosen entries one
// at a time, back to front, inserting each fact. Random buffers hold
// repeated facts over two relations, some entries placed by InsertAt.
TEST(MessageBufferTest, TakeCollapsedMatchesOneAtATimeReference) {
  std::mt19937_64 rng(17);
  auto below = [&](uint64_t n) { return rng() % n; };
  for (int round = 0; round < 300; ++round) {
    MessageBuffer buf;
    const uint64_t n = below(24);
    for (uint64_t tick = 0; tick < n; ++tick) {
      Fact fact(below(2) == 0 ? "M" : "N", {V(below(6)), V(below(3))});
      if (below(4) == 0) {
        buf.InsertAt(below(buf.size() + 2), std::move(fact), tick);
      } else {
        buf.Add(std::move(fact), tick);
      }
    }
    std::vector<size_t> indices;
    for (size_t i = 0; i < buf.size(); ++i) {
      if (below(3) == 0) indices.push_back(i);
    }

    std::vector<MessageBuffer::Entry> rest = buf.entries();
    Instance expected;
    for (auto it = indices.rbegin(); it != indices.rend(); ++it) {
      expected.Insert(rest[*it].fact);
      rest.erase(rest.begin() + static_cast<ptrdiff_t>(*it));
    }

    SCOPED_TRACE("round " + std::to_string(round));
    EXPECT_EQ(buf.TakeCollapsed(indices), expected);
    ASSERT_EQ(buf.size(), rest.size());
    for (size_t i = 0; i < rest.size(); ++i) {
      EXPECT_EQ(buf.entries()[i].fact, rest[i].fact) << i;
      EXPECT_EQ(buf.entries()[i].enqueued_at, rest[i].enqueued_at) << i;
    }
  }
}

TEST(RunStatsTest, RendersEveryCounter) {
  RunStats stats;
  stats.transitions = 12;
  stats.heartbeats = 3;
  stats.messages_sent = 8;
  stats.messages_delivered = 7;
  stats.output_facts = 4;
  stats.output_complete_at = 9;
  std::string s = RunStatsToString(stats);
  EXPECT_NE(s.find("transitions=12"), std::string::npos);
  EXPECT_NE(s.find("heartbeats=3"), std::string::npos);
  EXPECT_NE(s.find("sent=8"), std::string::npos);
  EXPECT_NE(s.find("delivered=7"), std::string::npos);
  EXPECT_NE(s.find("output_facts=4"), std::string::npos);
}

TEST(RoundRobinSchedulerTest, CyclesAndDeliversAll) {
  std::vector<MessageBuffer> buffers(3);
  buffers[1].Add(F(7), 0);
  RoundRobinScheduler sched(3);
  std::vector<size_t> order;
  for (uint64_t t = 0; t < 6; ++t) {
    Scheduler::Choice c = sched.Next(buffers, t);
    order.push_back(c.node_index);
    if (c.node_index == 1) {
      EXPECT_EQ(c.deliveries.size(), 1u);
    }
  }
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(RandomSchedulerTest, EveryNodeActivatedWithinBound) {
  // Fairness condition (i): no node is starved.
  std::vector<MessageBuffer> buffers(4);
  RandomScheduler sched(4, /*seed=*/42);
  std::vector<uint64_t> last(4, 0);
  for (uint64_t t = 1; t <= 500; ++t) {
    Scheduler::Choice c = sched.Next(buffers, t);
    last[c.node_index] = t;
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_LE(t - last[i], 4 * 4 + 5) << "node " << i << " starved";
    }
  }
}

TEST(RandomSchedulerTest, OldMessagesForceDelivered) {
  // Fairness condition (ii): no message is postponed past max_delay.
  std::vector<MessageBuffer> buffers(1);
  RandomScheduler sched(1, /*seed=*/7, /*deliver_prob=*/0.0, /*max_delay=*/8);
  buffers[0].Add(F(1), 0);
  bool delivered = false;
  for (uint64_t t = 1; t <= 10 && !delivered; ++t) {
    Scheduler::Choice c = sched.Next(buffers, t);
    if (!c.deliveries.empty()) {
      delivered = true;
      EXPECT_LE(t, 9u);
    }
  }
  EXPECT_TRUE(delivered);
}

TEST(AdversarialDelaySchedulerTest, DelaysButNeverPastBound) {
  // Fairness for the adversarial scheduler: a message sits exactly until it
  // ages past max_delay, then is force-delivered on its node's turn.
  std::vector<MessageBuffer> buffers(2);
  AdversarialDelayScheduler sched(2, /*max_delay=*/6);
  buffers[0].Add(F(1), 1);
  bool delivered = false;
  for (uint64_t t = 1; t <= 20 && !delivered; ++t) {
    Scheduler::Choice c = sched.Next(buffers, t);
    if (c.node_index == 0 && !c.deliveries.empty()) {
      delivered = true;
      EXPECT_GT(t, 6u);       // withheld while fresh
      EXPECT_LE(t, 1 + 6 + 2);  // but not past the bound (+ rotation slack)
      buffers[0].TakeCollapsed(c.deliveries);
    }
  }
  EXPECT_TRUE(delivered);
}

TEST(RandomSchedulerTest, DeterministicGivenSeed) {
  std::vector<MessageBuffer> buffers(3);
  for (uint64_t i = 0; i < 4; ++i) buffers[i % 3].Add(F(i), 0);
  RandomScheduler a(3, 99);
  RandomScheduler b(3, 99);
  for (uint64_t t = 0; t < 50; ++t) {
    Scheduler::Choice ca = a.Next(buffers, t);
    Scheduler::Choice cb = b.Next(buffers, t);
    EXPECT_EQ(ca.node_index, cb.node_index);
    EXPECT_EQ(ca.deliveries, cb.deliveries);
  }
}

}  // namespace
}  // namespace calm::net
