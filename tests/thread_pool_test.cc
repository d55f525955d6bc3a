#include "base/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/value.h"

namespace calm {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, RespectsBeginOffset) {
  ThreadPool pool(3);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(100, 200, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.ParallelFor(0, seen.size(), [&](size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (std::thread::id id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, UsesMultipleThreadsWhenAvailable) {
  ThreadPool pool(4);
  constexpr size_t kN = 4096;
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.ParallelFor(0, kN, [&](size_t) {
    // A tiny pause so workers get a chance to pick up chunks before the
    // caller drains the range.
    std::this_thread::yield();
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  // The caller always participates; with 3 workers and 4096 yielding tasks
  // at least one worker should have joined in. (Not asserting == 4: the
  // scheduler owes us nothing on a loaded machine.)
  EXPECT_GE(ids.size(), 1u);
}

// Many rounds, so a worker that frees the exception while the caller's
// handler still reads it shows up under TSan.
TEST(ThreadPoolTest, PropagatesTheFirstException) {
  ThreadPool pool(4);
  for (int round = 0; round < 300; ++round) {
    try {
      pool.ParallelFor(0, 1000, [&](size_t i) {
        if (i == 357) throw std::runtime_error("boom 357");
      });
      FAIL() << "expected an exception, round " << round;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 357");
    }
  }
}

TEST(ThreadPoolTest, ExceptionAbandonsRemainingChunks) {
  ThreadPool pool(2);
  std::atomic<size_t> executed{0};
  try {
    pool.ParallelFor(0, 1u << 20, [&](size_t i) {
      if (i == 0) throw std::runtime_error("early");
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "early");
  }
  // Chunks already handed out may finish, but the bulk of the range must
  // have been skipped.
  EXPECT_LT(executed.load(), 1u << 20);
}

TEST(ThreadPoolTest, ExceptionOnSerialPathPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(0, 4,
                                [](size_t i) {
                                  if (i == 2) throw std::logic_error("serial");
                                }),
               std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsSeriallyWithoutDeadlock) {
  ThreadPool pool(4);
  constexpr size_t kOuter = 64;
  constexpr size_t kInner = 64;
  std::atomic<size_t> count{0};
  pool.ParallelFor(0, kOuter, [&](size_t) {
    std::thread::id outer_thread = std::this_thread::get_id();
    pool.ParallelFor(0, kInner, [&](size_t) {
      // The nested loop must stay on the thread that issued it.
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);
      count.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(count.load(), kOuter * kInner);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(0, 100, [&](size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 5050u);
  }
}

TEST(ThreadPoolFreeFunctionTest, ZeroAndOneThreadRunSerially) {
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  ParallelFor(seen.size(), 1, [&](size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (std::thread::id id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolFreeFunctionTest, HonorsDefaultThreadsOverride) {
  SetDefaultThreads(3);
  EXPECT_EQ(DefaultThreads(), 3u);
  std::atomic<size_t> sum{0};
  ParallelFor(1000, 0, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 999u * 1000u / 2u);
  SetDefaultThreads(0);  // reset to environment/hardware
  EXPECT_GE(DefaultThreads(), 1u);
}

TEST(ThreadPoolFreeFunctionTest, ExceptionPropagates) {
  SetDefaultThreads(4);
  EXPECT_THROW(ParallelFor(256, 4,
                           [](size_t i) {
                             if (i == 100) throw std::runtime_error("free");
                           }),
               std::runtime_error);
  SetDefaultThreads(0);
}

// The interner is the one piece of process-global mutable state the parallel
// checkers lean on; hammer it from the pool.
TEST(SymbolTableConcurrencyTest, ConcurrentInternIsConsistent) {
  SymbolTable table;
  ThreadPool pool(8);
  constexpr size_t kNames = 300;   // shared name space
  constexpr size_t kLookups = 4000;
  std::vector<std::atomic<uint32_t>> ids(kNames);
  for (auto& id : ids) id.store(UINT32_MAX);

  pool.ParallelFor(0, kLookups, [&](size_t i) {
    size_t n = i % kNames;
    std::string name = "sym_" + std::to_string(n);
    uint32_t id = table.Intern(name);
    // Every thread interning the same name must get the same id.
    uint32_t expected = UINT32_MAX;
    if (!ids[n].compare_exchange_strong(expected, id)) {
      ASSERT_EQ(expected, id) << name;
    }
    // Lock-free read path: the id resolves back to the name immediately.
    ASSERT_EQ(table.NameOf(id), name);
    ASSERT_EQ(table.Find(name), id);
  });

  EXPECT_EQ(table.size(), kNames);
  // Ids are dense and the table round-trips serially afterwards.
  for (size_t n = 0; n < kNames; ++n) {
    uint32_t id = ids[n].load();
    ASSERT_LT(id, kNames);
    EXPECT_EQ(table.NameOf(id), "sym_" + std::to_string(n));
  }
}

TEST(SymbolTableConcurrencyTest, GlobalInternFromManyThreads) {
  ThreadPool pool(6);
  pool.ParallelFor(0, 2000, [&](size_t i) {
    std::string name = "global_stress_" + std::to_string(i % 97);
    Value v = Sym(name);
    ASSERT_TRUE(v.is_symbol());
    ASSERT_EQ(ValueToString(v), name);
  });
}

}  // namespace
}  // namespace calm
