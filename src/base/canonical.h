#ifndef CALM_BASE_CANONICAL_H_
#define CALM_BASE_CANONICAL_H_

#include <map>
#include <vector>

#include "base/instance.h"

namespace calm {

// Every value bijection adom(I) -> adom(I) that fixes I setwise, as value
// maps (the identity included), in deterministic order. Generic queries
// (Section 2: Q(pi(I)) = pi(Q(I))) treat I and pi(I) alike, so the reduced
// monotonicity sweeps use Aut(I) to filter J-candidate subsets down to
// stabilizer-orbit representatives.
//
// Iterative partition refinement over value occurrence signatures first
// splits adom(I) into cells no automorphism can cross; backtracking then
// tries only within-cell bijections and keeps those that fix I. The cost is
// the product of cell-size factorials times |I| log |I| — a handful of
// leaves once refinement separates the values, and bounded by the checkers'
// tiny adom sizes in the fully symmetric worst case.
std::vector<std::map<Value, Value>> InstanceAutomorphisms(
    const Instance& instance);

}  // namespace calm

#endif  // CALM_BASE_CANONICAL_H_
