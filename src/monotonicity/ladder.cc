#include "monotonicity/ladder.h"

#include <vector>

namespace calm::monotonicity {

size_t Ladder::FirstDistinctViolation() const {
  for (const LadderRow& row : rows) {
    if (!row.in_distinct) return row.i;
  }
  return 0;
}

size_t Ladder::FirstDisjointViolation() const {
  for (const LadderRow& row : rows) {
    if (!row.in_disjoint) return row.i;
  }
  return 0;
}

std::string Ladder::ToString() const {
  std::string out = "  i  M^i  M^i_distinct  M^i_disjoint\n";
  for (const LadderRow& row : rows) {
    out += "  " + std::to_string(row.i) + "  " + (row.in_m ? "yes" : "no ") +
           "  " + (row.in_distinct ? "yes" : "no ") + "           " +
           (row.in_disjoint ? "yes" : "no ") + "\n";
  }
  return out;
}

Result<Ladder> ComputeLadder(const Query& query, size_t max_i,
                             const ExhaustiveOptions& base) {
  // Row i's M, Mdistinct and Mdisjoint cells are cells 3(i-1) .. 3(i-1)+2,
  // all resolved by one pass over the I space (FindViolations).
  std::vector<SweepCell> cells;
  for (size_t i = 1; i <= max_i; ++i) {
    for (MonotonicityClass cls : {MonotonicityClass::kMonotone,
                                  MonotonicityClass::kDomainDistinct,
                                  MonotonicityClass::kDomainDisjoint}) {
      cells.push_back({cls, i});
    }
  }
  CALM_ASSIGN_OR_RETURN(std::vector<std::optional<Counterexample>> witnesses,
                        FindViolations(query, cells, base));

  Ladder ladder;
  for (size_t i = 1; i <= max_i; ++i) {
    LadderRow row;
    row.i = i;
    size_t cell = (i - 1) * 3;
    row.m_witness = std::move(witnesses[cell]);
    row.in_m = !row.m_witness.has_value();
    row.distinct_witness = std::move(witnesses[cell + 1]);
    row.in_distinct = !row.distinct_witness.has_value();
    row.disjoint_witness = std::move(witnesses[cell + 2]);
    row.in_disjoint = !row.disjoint_witness.has_value();
    ladder.rows.push_back(std::move(row));
  }
  return ladder;
}

}  // namespace calm::monotonicity
