#ifndef CALM_MONOTONICITY_CHECKER_H_
#define CALM_MONOTONICITY_CHECKER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/enumerator.h"
#include "base/instance.h"
#include "base/query.h"
#include "base/schema.h"
#include "base/status.h"

namespace calm::monotonicity {

// The monotonicity hierarchy of Section 3.1 (Definition 1):
//   kMonotone        M          : Q(I) <= Q(I u J) for all J
//   kDomainDistinct  Mdistinct  : ... for J domain distinct from I
//   kDomainDisjoint  Mdisjoint  : ... for J domain disjoint from I
enum class MonotonicityClass {
  kMonotone,
  kDomainDistinct,
  kDomainDisjoint,
};

const char* MonotonicityClassName(MonotonicityClass cls);

// A witness that Q is not in the checked class: some output fact of Q(i) is
// missing from Q(i u j), where j is of the class-appropriate kind w.r.t. i.
struct Counterexample {
  Instance i;
  Instance j;
  Fact retracted;  // in Q(i) \ Q(i u j)

  std::string ToString() const;
};

struct ExhaustiveOptions {
  // I ranges over instances with values {0..domain_size-1} and at most
  // max_facts_i facts.
  size_t domain_size = 3;
  size_t max_facts_i = 3;
  // J draws on fresh values {1000..1000+fresh_values-1} (plus adom(I) for
  // the domain-distinct case) and has at most max_facts_j facts. Bounding
  // max_facts_j to i checks the bounded class M^i (Section 3.1).
  size_t fresh_values = 2;
  size_t max_facts_j = 4;
  // Worker threads for the exhaustive search (0 = DefaultThreads(), i.e. the
  // --threads / CALM_THREADS knob; 1 = serial). The candidate-I space is
  // partitioned across the pool and per-shard results are merged in
  // enumeration order, so the verdict and counterexample are identical for
  // every thread count.
  size_t threads = 0;
  // Genericity-aware symmetry reduction (base/canonical.h): sweep one
  // representative per isomorphism orbit of I, and filter each I's J-subset
  // space down to orbit representatives under Aut(I) x Sym(fresh values).
  // kAuto probes genericity first (ProbeGenericity in base/query.h); a query
  // failing the probe — including by evaluation error — falls back to the
  // full sweep. Because the kept representative is always the
  // enumeration-order-least orbit member, verdicts AND counterexamples are
  // byte-identical to the full sweep for generic queries.
  SymmetryMode symmetry = SymmetryMode::kAuto;
  // When non-empty, a one-cell sweep (FindViolation) journals per-candidate
  // progress into <checkpoint_dir>/<sweep id>.wal
  // (monotonicity/sweep_checkpoint.h) and a rerun with the same query,
  // class, and bounds resumes: recorded indices are skipped and the verdict,
  // witness, and stop point are identical to an uninterrupted run. The
  // directory is created if missing. Multi-cell sweeps reject it.
  std::string checkpoint_dir;
  // Optional cooperative cancellation (the benches' SIGINT handler sets it).
  // When the flag becomes true the sweep stops starting new candidates and
  // returns kDeadlineExceeded; with a checkpoint_dir, everything finished
  // before the cancel is durable and a rerun continues from there. Not owned.
  const std::atomic<bool>* cancel = nullptr;
};

// Exhaustively searches the bounded space for a violation of `cls`.
// Returns a counterexample, or nullopt when the query satisfies the
// monotonicity condition on every enumerated pair (evidence, not proof).
// For kMonotone, J additionally ranges over facts made purely of old values.
Result<std::optional<Counterexample>> FindViolation(
    const Query& query, MonotonicityClass cls,
    const ExhaustiveOptions& options = {});

// One cell of a bounded sweep: the class and |J| bound of one FindViolation.
struct SweepCell {
  MonotonicityClass cls;
  size_t max_facts_j;
};

// Resolves every cell in one pass over the I space; FindViolation is the
// one-cell case. out[c] is exactly FindViolation(query, cells[c].cls, options
// with max_facts_j = cells[c].max_facts_j), or the first cell error in cell
// order is returned. Per I, the open cells are covered by at most 3 streams
// (the widest open class at its largest open bound, then what that leaves),
// and each J is checked once for every open cell containing it (DESIGN.md,
// "One-pass ladder"). options.max_facts_j is ignored. InvalidArgument for
// over 64 cells (cell sets are bit masks) or a checkpoint_dir on over one.
Result<std::vector<std::optional<Counterexample>>> FindViolations(
    const Query& query, const std::vector<SweepCell>& cells,
    const ExhaustiveOptions& options);

// The sweep's building blocks, exposed for tests. CandidateJFacts: the facts
// J draws on per class — kMonotone: over adom(I) + fresh values, not in I;
// kDomainDistinct: those with a fresh value; kDomainDisjoint: those over
// fresh values only (order-preserving sublists of the kMonotone list).
std::vector<Fact> CandidateJFacts(const Schema& schema, const Instance& i,
                                  const std::vector<Value>& fresh,
                                  MonotonicityClass cls);
// StabilizerValueMaps: Aut(I) x Sym(fresh values), each fixing I and every
// class's candidates setwise, so a generic query's violations are closed
// under them (the reduced sweep's J filter).
std::vector<std::map<Value, Value>> StabilizerValueMaps(
    const Instance& i, const std::vector<Value>& fresh);
// CandidateKinds: per candidate, the narrowest class whose J space holds it
// as a one-fact J — kDomainDisjoint when none of its values is in adom(I),
// kDomainDistinct when some value is outside adom(I), kMonotone otherwise.
// A J's narrowest class is the least kind among its facts.
std::vector<MonotonicityClass> CandidateKinds(
    const std::vector<Fact>& candidates, const std::set<Value>& adom_i);

struct RandomOptions {
  size_t trials = 100;
  size_t domain_size = 8;
  size_t facts_i = 10;
  size_t facts_j = 4;
  size_t fresh_values = 4;
  uint64_t seed = 0;
};

// Randomized search over larger instances.
Result<std::optional<Counterexample>> FindViolationRandom(
    const Query& query, MonotonicityClass cls, const RandomOptions& options);

// Checks pairs (i, j) sharing a fixed outer i: Q(i) is evaluated once (on
// the first check) and reused for every j, and the per-pair Q(i u j)
// subset tests go through the query's UnionEvaluator (base/query.h) — the
// engine decides how to reuse its state about i across the J enumeration
// (one world-masked fixpoint per batch of j's for DatalogQuery, a
// precomputed reachability matrix for the closure queries, an overlay on a
// persistent copy of i otherwise). Every route reports the byte-identical
// first-retracted fact. The exhaustive searches create one PairChecker per
// candidate I; `i` must outlive the checker.
class PairChecker {
 public:
  PairChecker(const Query& query, const Instance& i) : query_(query), i_(i) {}

  // Returns a counterexample iff Q(i) is not a subset of Q(i u j) — the
  // retracted fact is the first one in Q(i)'s iteration order, identical to
  // evaluating the pair in isolation. Callers are responsible for j's kind.
  Result<std::optional<Counterexample>> Check(const Instance& j);

  // Answers each of `js`, index subsets of `candidates` (distinct facts),
  // where J_k holds candidates[c] for every c in js[k]: answer k is Q(i)'s
  // error, or the fact Check(J_k) would report retracted (nullopt for
  // none). The answers are the union evaluator's, left in place until the
  // next batch; it shares its work across up to batch_limit() j's, and no
  // J_k is built as an Instance.
  const std::vector<Result<std::optional<Fact>>>& CheckBatch(
      const std::vector<Fact>& candidates, const FactSubsets& js);

  // How many j's one CheckBatch shares work across (the union evaluator's
  // MaxBatch; 1 when Q(i) failed). Evaluates Q(i) on first use, as the
  // first check would.
  size_t batch_limit() {
    if (!base_ready_) Prepare();
    return batch_limit_;
  }

 private:
  // Evaluates Q(i) and builds the union evaluator (first check only).
  void Prepare();

  const Query& query_;
  const Instance& i_;
  bool base_ready_ = false;
  Status base_status_;            // Q(i)'s error, replayed on every check
  std::vector<Fact> base_facts_;  // Q(i) in iteration order
  // Engine-chosen Q(i) <= Q(i u j) tester, built lazily with base_facts_.
  std::unique_ptr<UnionEvaluator> union_eval_;
  size_t batch_limit_ = 1;
  std::vector<Result<std::optional<Fact>>> answers_;  // CheckBatch's answers
};

// Checks one specific pair: returns a counterexample iff Q(i) is not a
// subset of Q(i u j). Callers are responsible for j's kind.
Result<std::optional<Counterexample>> CheckPair(const Query& query,
                                                const Instance& i,
                                                const Instance& j);

}  // namespace calm::monotonicity

#endif  // CALM_MONOTONICITY_CHECKER_H_
