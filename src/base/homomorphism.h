#ifndef CALM_BASE_HOMOMORPHISM_H_
#define CALM_BASE_HOMOMORPHISM_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/instance.h"

namespace calm {

// A homomorphism from I to J is a mapping h : adom(I) -> adom(J) such that
// R(d...) in I implies R(h(d)...) in J (Section 3.2). The enumerator below
// is exponential in |adom(I)| and intended for the small instances used by
// the preservation-class checkers, which run it once per (source, target)
// pair; it works on value indices and allocates nothing once its buffers
// have grown.

// An instance's facts written over a value list `adom` (ascending): each
// value becomes its index in `adom`, or kUnmapped for a value outside it —
// a constant a query put into its output, which every h leaves fixed (as
// ApplyValueMap does).
struct IndexedFacts {
  static constexpr uint32_t kUnmapped = UINT32_MAX;
  struct Entry {
    uint32_t relation;
    uint32_t begin;  // into index / values
    uint32_t arity;
  };
  std::vector<Entry> facts;     // the instance's fact order
  std::vector<uint32_t> index;  // per value: its adom index, or kUnmapped
  std::vector<Value> values;    // per value: the value itself

  // Refills from `in` over `adom`, keeping capacity.
  void Assign(const Instance& in, const std::vector<Value>& adom);
};

// adom(in), ascending.
std::vector<Value> SortedDomain(const Instance& in);

// Enumerates the (injective, when asked) homomorphisms from I to J, as
// maps of adom(I)'s indices to adom(J)'s, in lexicographic order of
// (h(a_0), h(a_1), ...) with a_0 < a_1 < ... and candidates taken in
// ascending adom(J) order. Each fact of I is tested as soon as its last
// value is assigned, so a prefix that already breaks a fact prunes its
// whole subtree; the maps that come out, and their order, are those of
// testing every total map at the leaves.
class HomomorphismEnumerator {
 public:
  // Starts over: `i` is I written over adom(I) (SortedDomain, every value
  // mapped) with |adom(I)| = adom_i_size; `adom_j` is SortedDomain(j).
  // `i`, `j` and `adom_j` must outlive the enumeration.
  void Reset(const IndexedFacts& i, size_t adom_i_size, const Instance& j,
             const std::vector<Value>& adom_j, bool injective);

  // Advances to the next homomorphism; false once there is none left.
  bool Next();

  // The current homomorphism, valid after Next() returned true: map()[a]
  // is the index in adom_j of h(adom_i[a]).
  const std::vector<uint32_t>& map() const { return h_; }

  // The least h(f), over the facts f of `facts` (written over adom(I)),
  // missing from `target`; nullopt when every h(f) is in it. That is the
  // first fact of ApplyValueMap(facts, h) that `target` lacks.
  std::optional<Fact> LeastMissingImage(const IndexedFacts& facts,
                                        const Instance& target) const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  // Whether h(f) is in J for every fact f whose last value is a_{level-1}
  // (level 0: the facts with no values).
  bool LevelHolds(size_t level) const;

  const IndexedFacts* i_ = nullptr;
  const std::vector<Value>* adom_j_ = nullptr;
  bool injective_ = false;
  bool started_ = false;
  bool done_ = true;
  std::vector<uint32_t> h_;       // kNone where unassigned
  std::vector<uint8_t> used_;     // injective: adom(J) indices taken
  std::vector<uint32_t> order_;   // I's facts by level
  std::vector<uint32_t> level_begin_;  // into order_, n + 2 entries
  std::vector<uint32_t> fill_;         // Reset's bucket cursors
  std::vector<const TupleSet*> j_sets_;  // per fact of I: J's tuples
};

}  // namespace calm

#endif  // CALM_BASE_HOMOMORPHISM_H_
