#ifndef CALM_BASE_ENUMERATOR_H_
#define CALM_BASE_ENUMERATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "base/instance.h"
#include "base/schema.h"

namespace calm {

// Exhaustive enumeration helpers used by the bounded monotonicity /
// preservation checkers. All are exponential by nature; callers choose tiny
// domains (the paper's separations are all witnessed at <= 6 values).

// Every fact over `schema` whose values come from `domain`, in deterministic
// order. Size = sum over relations of |domain|^arity.
std::vector<Fact> AllFactsOver(const Schema& schema,
                               const std::vector<Value>& domain);

// Invokes `fn` for every instance over `schema` with values from `domain`
// and at most `max_facts` facts (including the empty instance). Stops early
// when fn returns false. Returns false iff stopped.
bool ForEachInstance(const Schema& schema, const std::vector<Value>& domain,
                     size_t max_facts,
                     const std::function<bool(const Instance&)>& fn);

// Materialized instance streams: the same spaces as the ForEach* callbacks
// above, but as indexed vectors in the identical deterministic order. The
// parallel checkers partition these indices across the thread pool and merge
// per-shard results back in index order, which is what keeps the parallel
// verdicts byte-identical to the single-threaded ones.
std::vector<Instance> AllInstances(const Schema& schema,
                                   const std::vector<Value>& domain,
                                   size_t max_facts);

// The integer domain {0, 1, ..., n-1} as Values.
std::vector<Value> IntDomain(size_t n, uint64_t offset = 0);

// Orbit-representative streams for the genericity-aware reduced sweeps
// (base/canonical.h). Two instances over `domain` are isomorphic when an
// injective value map sends one fact set onto the other; a generic query
// treats the whole orbit alike, so sweeping one member per orbit suffices.
//
// The representative chosen for every orbit is its enumeration-order-least
// member in the ForEachInstance stream above. That choice is what keeps
// reduced-sweep counterexamples byte-identical to the full sweep: the first
// representative with a violation IS the first violating instance overall
// (violation existence is orbit-invariant), so the reduced sweep stops on
// the very same instance, no witness remapping required. Non-least subsets
// only extend to non-least subsets, so whole DFS subtrees prune.
//
// Invokes fn(instance, orbit_size) for every representative, where
// orbit_size counts the orbit's members inside the bounded space (empty
// instance included, orbit 1). Stops early when fn returns false; returns
// false iff stopped.
bool ForEachCanonicalInstance(
    const Schema& schema, const std::vector<Value>& domain, size_t max_facts,
    const std::function<bool(const Instance&, uint64_t)>& fn);

// Materialized orbit representatives, in the deterministic order above —
// the same vector-stream shape AllInstances feeds to the thread-pool
// sharding. When `orbit_sizes` is non-null it receives one count per
// representative; the counts sum to |AllInstances(...)|.
std::vector<Instance> AllCanonicalInstances(
    const Schema& schema, const std::vector<Value>& domain, size_t max_facts,
    std::vector<uint64_t>* orbit_sizes = nullptr);

// The permutations `value_maps` induce on the index space of `facts`: entry
// p satisfies facts[p[i]] == value_map(facts[i]). Maps that do not permute
// `facts` setwise are dropped (dropping only loses reduction, never
// soundness), as are the identity and duplicates. Used to build the
// stabilizer filter for the J-space below: for the monotonicity checkers
// the maps are Aut(I) x Sym(fresh values), under which every candidate
// fact list is closed.
std::vector<std::vector<uint32_t>> FactIndexPermutations(
    const std::vector<Fact>& facts,
    const std::vector<std::map<Value, Value>>& value_maps);

// Invokes fn for every nonempty subset of {0, .., n-1} with at most
// `max_size` members, as an ascending index list, depth first: each subset
// before its extensions, extensions by ascending added index ({0}, {0,1},
// {0,1,2}, .., {0,2}, ..). With `index_perms` non-empty, only subsets that
// are lexicographically least in their orbit under the permutations are
// visited — the enumeration-order-least orbit member, the same
// representative convention as ForEachCanonicalInstance. Sound for any set
// of violation-preserving permutations, group closure not required: the
// first violating subset is the least of its orbit, hence kept, as are all
// its DFS ancestors. Stops early when fn returns false; returns false iff
// stopped.
bool ForEachIndexSubset(
    size_t n, size_t max_size,
    const std::vector<std::vector<uint32_t>>& index_perms,
    const std::function<bool(std::span<const uint32_t>)>& fn);

// Index subsets stored back to back in one buffer (each subset addressed by
// its offset, not held as its own vector): subset k is flat[ends[k-1] ..
// ends[k]), from 0 for k = 0. The sweeps' J's are index subsets of one
// candidate fact list, so a stream or a batch of J's is one FactSubsets.
class FactSubsets {
 public:
  size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }
  std::span<const uint32_t> operator[](size_t k) const {
    const uint32_t from = k == 0 ? 0 : ends_[k - 1];
    return {flat_.data() + from, ends_[k] - from};
  }
  void Add(std::span<const uint32_t> subset) {
    flat_.insert(flat_.end(), subset.begin(), subset.end());
    ends_.push_back(static_cast<uint32_t>(flat_.size()));
  }
  void clear() {
    flat_.clear();
    ends_.clear();
  }

 private:
  std::vector<uint32_t> flat_;
  std::vector<uint32_t> ends_;
};

// One Instance that follows a sequence of index subsets of `candidates`
// (distinct facts, outliving this object): Set keeps the facts of the
// previous subset's common prefix with the new one, erases the rest of the
// previous subset and inserts the rest of the new one. Consecutive subsets
// of a DFS share all but their last few indices, so each costs about one
// erase and one insert.
class SubsetInstance {
 public:
  explicit SubsetInstance(const std::vector<Fact>& candidates)
      : candidates_(candidates) {}
  const Instance& Set(std::span<const uint32_t> subset);

 private:
  const std::vector<Fact>& candidates_;
  Instance instance_;
  std::vector<uint32_t> subset_;  // instance_'s indices
};

}  // namespace calm

#endif  // CALM_BASE_ENUMERATOR_H_
