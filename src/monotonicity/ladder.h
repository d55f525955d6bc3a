#ifndef CALM_MONOTONICITY_LADDER_H_
#define CALM_MONOTONICITY_LADDER_H_

#include <string>
#include <vector>

#include "monotonicity/checker.h"

namespace calm::monotonicity {

// The bounded ladders of Section 3.1: for i = 1..max_i, whether the query
// sits in M^i, M^i_distinct, M^i_disjoint (bounded exhaustive verdicts).
// This is Figure 1 as a data structure — each row either carries a
// counterexample or certifies "no violation in the searched space".
struct LadderRow {
  size_t i = 0;
  bool in_m = false;
  bool in_distinct = false;
  bool in_disjoint = false;
  std::optional<Counterexample> m_witness;
  std::optional<Counterexample> distinct_witness;
  std::optional<Counterexample> disjoint_witness;
};

struct Ladder {
  std::vector<LadderRow> rows;

  // The least i at which the query leaves M^i_distinct (0 = never within
  // the table) — by Theorem 3.1(3) this pins the query's rung.
  size_t FirstDistinctViolation() const;
  size_t FirstDisjointViolation() const;

  // Renders an aligned table ("i  M  M^i_distinct  M^i_disjoint").
  std::string ToString() const;
};

// Computes the ladder for i = 1..max_i in one FindViolations sweep. `base`
// supplies the instance space (max_facts_j is set per row to i); max_i > 21
// and a checkpoint_dir are InvalidArgument.
Result<Ladder> ComputeLadder(const Query& query, size_t max_i,
                             const ExhaustiveOptions& base = {});

}  // namespace calm::monotonicity

#endif  // CALM_MONOTONICITY_LADDER_H_
