#ifndef CALM_BASE_INSTANCE_H_
#define CALM_BASE_INSTANCE_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/fact.h"
#include "base/schema.h"
#include "base/value.h"

namespace calm {

// The tuples of one relation: a sorted, duplicate-free flat vector with the
// read-side API of std::set<Tuple>. Instances in this codebase are built in
// bulk and read far more than they are mutated, so flat storage wins on both
// sides: bulk builds are appends instead of one tree node allocation per
// fact, and iteration/equality are linear scans over contiguous memory.
// Mutation goes through Instance (single inserts/erases shift the tail, O(n)
// worst case — fine for the small instances the checkers enumerate; bulk
// inserts merge linearly).
class TupleSet {
 public:
  using value_type = Tuple;
  using const_iterator = std::vector<Tuple>::const_iterator;
  using iterator = const_iterator;

  const_iterator begin() const { return tuples_.begin(); }
  const_iterator end() const { return tuples_.end(); }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const_iterator lower_bound(const Tuple& t) const;
  const_iterator find(const Tuple& t) const;
  size_t count(const Tuple& t) const { return find(t) != end() ? 1 : 0; }
  bool contains(const Tuple& t) const { return find(t) != end(); }

  friend bool operator==(const TupleSet& a, const TupleSet& b) {
    return a.tuples_ == b.tuples_;
  }
  friend bool operator!=(const TupleSet& a, const TupleSet& b) {
    return !(a == b);
  }
  friend bool operator<(const TupleSet& a, const TupleSet& b) {
    return a.tuples_ < b.tuples_;
  }

 private:
  friend class Instance;

  // Returns true if `t` was new. General form: binary search + shift.
  bool InsertUnique(const Tuple& t);
  bool InsertUnique(Tuple&& t);
  bool EraseOne(const Tuple& t);

  std::vector<Tuple> tuples_;  // ascending, unique
};

// A database instance: a finite set of facts. Facts are grouped per relation
// in sorted flat containers, so iteration is deterministic. An Instance is
// not bound to a Schema; use Restrict / Admits for schema discipline.
class Instance {
 public:
  Instance() = default;
  Instance(std::initializer_list<Fact> facts);

  // Inserts a fact; returns true if it was new.
  bool Insert(const Fact& fact);
  bool Insert(Fact&& fact);
  // Inserts every fact of `other`; returns the number of new facts.
  size_t InsertAll(const Instance& other);

  // Bulk-inserts tuples into relation `rel`; `sorted` must be ascending
  // (duplicates allowed). O(1) per tuple when the relation is empty or the
  // run extends past its current maximum — for queries that produce their
  // output in sorted order anyway (the evaluation engines and the native
  // graph queries on the checker hot path), the build is a plain append.
  // Any other run is one in-place linear merge, O(n + m). Returns the
  // number of new facts.
  size_t InsertSorted(uint32_t rel, const std::vector<Tuple>& sorted);
  // Move form: when relation `rel` is empty the buffer is adopted wholesale
  // (no per-tuple copies) — the engines' materialization path.
  size_t InsertSorted(uint32_t rel, std::vector<Tuple>&& sorted);
  // As the move form, for buffers the caller guarantees strictly ascending
  // (no duplicates at all): adoption skips the adjacent-duplicate sweep.
  // Database::ToInstance qualifies — columnar rows are deduplicated at
  // insert and emitted in strict key order.
  size_t InsertSortedUnique(uint32_t rel, std::vector<Tuple>&& sorted);

  // Bulk-inserts facts; `sorted` must be ascending in Fact order (relation
  // id, then tuple — duplicates allowed), so each relation's run inserts
  // like InsertSorted. Returns the number of new facts.
  size_t InsertSortedFacts(const std::vector<Fact>& sorted);

  // Removes a fact; returns true if it was present.
  bool Erase(const Fact& fact);

  bool Contains(const Fact& fact) const;

  // Number of facts |I|.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    relations_.clear();
    size_ = 0;
  }

  // The tuples of relation `name` (empty set if absent).
  const TupleSet& TuplesOf(uint32_t name) const;

  // Relation names with at least one tuple, in deterministic order.
  std::vector<uint32_t> RelationNames() const;

  // All facts in deterministic order.
  std::vector<Fact> AllFacts() const;

  // The active domain adom(I): every value occurring in some fact.
  std::set<Value> ActiveDomain() const;

  // I|sigma: the maximal subset of I over `schema`.
  Instance Restrict(const Schema& schema) const;

  // True if every fact is over `schema`.
  bool IsOver(const Schema& schema) const;

  // Set operations (by fact).
  static Instance Union(const Instance& a, const Instance& b);
  static Instance Difference(const Instance& a, const Instance& b);
  bool IsSubsetOf(const Instance& other) const;

  // Renders "{E(1, 2), S(3)}".
  std::string ToString() const;

  friend bool operator==(const Instance& a, const Instance& b) {
    return a.size_ == b.size_ && a.relations_ == b.relations_;
  }
  friend bool operator!=(const Instance& a, const Instance& b) {
    return !(a == b);
  }
  // Lexicographic on the sorted fact sequence; only used for deterministic
  // ordering in containers.
  friend bool operator<(const Instance& a, const Instance& b) {
    return a.relations_ < b.relations_;
  }

  // Invokes fn(relation_name, tuple) for every fact in deterministic order.
  template <typename Fn>
  void ForEachFact(Fn&& fn) const {
    for (const auto& [name, tuples] : relations_) {
      for (const Tuple& t : tuples) fn(name, t);
    }
  }

 private:
  // The entry for `name`, created (empty) if absent. Invariant: entries are
  // sorted by name and never left empty after a public call returns, so
  // equality/ordering can compare the vectors directly.
  TupleSet& SetOf(uint32_t name);
  const TupleSet* FindSet(uint32_t name) const;

  std::vector<std::pair<uint32_t, TupleSet>> relations_;  // sorted by name
  size_t size_ = 0;
};

// Whether fact/instance J is domain distinct / domain disjoint from I
// (Section 3.1): `f` is domain distinct from I when adom(f) \ adom(I) != {};
// domain disjoint when adom(f) and adom(I) are disjoint. An instance J is
// domain distinct (disjoint) from I when every fact of J is.
bool FactDomainDistinctFrom(const Fact& f, const std::set<Value>& adom_i);
bool FactDomainDisjointFrom(const Fact& f, const std::set<Value>& adom_i);
bool IsDomainDistinctFrom(const Instance& j, const Instance& i);
bool IsDomainDisjointFrom(const Instance& j, const Instance& i);

// J is an induced subinstance of I when J = {f in I | adom(f) <= adom(J)}
// (Section 3.2).
bool IsInducedSubinstance(const Instance& j, const Instance& i);

// Applies a value mapping pointwise; values absent from `map` are unchanged.
Instance ApplyValueMap(const Instance& in, const std::map<Value, Value>& map);

}  // namespace calm

#endif  // CALM_BASE_INSTANCE_H_
