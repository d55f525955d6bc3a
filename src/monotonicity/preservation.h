#ifndef CALM_MONOTONICITY_PRESERVATION_H_
#define CALM_MONOTONICITY_PRESERVATION_H_

#include <atomic>
#include <optional>
#include <string>

#include "base/instance.h"
#include "base/query.h"
#include "base/status.h"

namespace calm::monotonicity {

// Preservation classes of Section 3.2 (Definition 2): H (preserved under
// homomorphisms), Hinj (injective homomorphisms), E (extensions). Lemma 3.2:
// H ( Hinj = M ( E = Mdistinct. These bounded checkers let the benches
// re-derive the lemma's equalities empirically.
enum class PreservationClass {
  kHomomorphisms,           // H
  kInjectiveHomomorphisms,  // Hinj
  kExtensions,              // E
};

const char* PreservationClassName(PreservationClass cls);

struct PreservationViolation {
  Instance i;
  Instance j;
  Fact not_preserved;  // h(f) missing from Q(J) (or f missing from Q(I) for E)
  std::string ToString() const;
};

struct PreservationOptions {
  // Instances range over {0..domain_size-1} with at most max_facts facts;
  // target instances for homomorphism checks use the same bounds.
  size_t domain_size = 3;
  size_t max_facts = 3;
  // Worker threads (0 = DefaultThreads(), 1 = serial). The source-instance
  // space is partitioned across the pool; results merge in enumeration
  // order, so the violation returned is thread-count-independent.
  size_t threads = 0;
  // Genericity-aware symmetry reduction: sweep only the enumeration-least
  // representative of each source-instance isomorphism orbit (violation
  // existence is orbit-invariant for generic queries, so the first violating
  // representative is the first violating source and the reported violation
  // is byte-identical to the full sweep). kAuto probes genericity first;
  // failures fall back to the full sweep.
  SymmetryMode symmetry = SymmetryMode::kAuto;
  // When non-empty, the sweep journals per-source progress into
  // <checkpoint_dir>/<sweep id>.wal (monotonicity/sweep_checkpoint.h); a
  // rerun with the same query, class, and bounds skips recorded sources and
  // returns the identical verdict, witness, and stop point. Created if
  // missing.
  std::string checkpoint_dir;
  // Optional cooperative cancellation; semantics match
  // ExhaustiveOptions::cancel (checker.h). Not owned.
  const std::atomic<bool>* cancel = nullptr;
};

// Exhaustively searches the bounded space for a preservation violation.
// For H / Hinj: some (injective) homomorphism h : I -> J and fact f in Q(I)
// with h(f) not in Q(J). For E: some induced subinstance J of I and fact in
// Q(J) \ Q(I).
Result<std::optional<PreservationViolation>> FindPreservationViolation(
    const Query& query, PreservationClass cls,
    const PreservationOptions& options = {});

}  // namespace calm::monotonicity

#endif  // CALM_MONOTONICITY_PRESERVATION_H_
