#ifndef CALM_BASE_RESULT_CACHE_H_
#define CALM_BASE_RESULT_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/instance.h"
#include "base/query.h"
#include "base/status.h"

namespace calm {

// A thread-safe, sharded cache of query results keyed by the canonical form
// of the input (base/canonical.h). For a generic query, Q(pi(I)) = pi(Q(I)),
// so one evaluation per isomorphism class suffices: results are stored in
// canonical labels and mapped back through the inverse of the witnessing
// permutation on every hit. The preservation checker routes its repeated
// target and subinstance evaluations through one.
//
// Correctness depends on genericity — callers must gate usage behind
// ProbeGenericity (base/query.h) or explicit opt-in, exactly like the
// reduced sweeps. Queries with invented output values (ILOG) get unstable
// ids across evaluations anyway; the probe rejects those.
//
// Thread safety: fully thread-safe; entries are guarded by one of kShards
// mutexes chosen by the key hash, so parallel sweep workers rarely contend.
class QueryResultCache {
 public:
  explicit QueryResultCache(const Query& query) : query_(query) {}
  QueryResultCache(const QueryResultCache&) = delete;
  QueryResultCache& operator=(const QueryResultCache&) = delete;

  const Query& query() const { return query_; }

  // Evaluates Q(input), serving isomorphic repeats from the cache. Appends
  // the facts of Q(input) to `out` in ascending Fact order — identical to
  // Query::EvalFacts. Evaluation errors are cached and replayed too, so an
  // error surfaces at the same enumeration point on every code path.
  Status EvalFacts(const Instance& input, std::vector<Fact>* out);

  // As EvalFacts, but materializing the result (Query::Eval contract).
  Result<Instance> Eval(const Instance& input);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  Stats stats() const {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed)};
  }

 private:
  struct Entry {
    Status status;                      // replayed verbatim when not ok()
    std::vector<Fact> canonical_facts;  // Q(I) in canonical labels, ascending
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, Entry> map;  // guarded by mu
  };
  static constexpr size_t kShards = 16;

  Shard& ShardOf(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) & (kShards - 1)];
  }

  const Query& query_;
  std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace calm

#endif  // CALM_BASE_RESULT_CACHE_H_
