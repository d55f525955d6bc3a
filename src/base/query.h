#ifndef CALM_BASE_QUERY_H_
#define CALM_BASE_QUERY_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/enumerator.h"
#include "base/instance.h"
#include "base/schema.h"
#include "base/status.h"

namespace calm {

// Repeated Q(i) ⊆ Q(i ∪ j) checks against one fixed i — the monotonicity
// checkers' inner loop, which enumerates many small j per outer i. An
// evaluator may keep arbitrary state about i across calls (a materialized
// fixpoint, a precomputed closure); the query and `i` it was built over
// must outlive it. Obtained from Query::MakeUnionEvaluator; not thread-safe.
class UnionEvaluator {
 public:
  virtual ~UnionEvaluator() = default;

  // Returns the first fact of `base_facts` missing from Q(i ∪ j), or
  // nullopt when every one is present. `base_facts` must be Q(i) in
  // ascending fact order (Query::EvalFacts' order) for the i this evaluator
  // was built over — the returned fact is then identical to the one a
  // from-scratch evaluation and sorted merge would report.
  virtual Result<std::optional<Fact>> FirstRetracted(
      const Instance& j, const std::vector<Fact>& base_facts) = 0;

  // FirstRetracted for a batch of j's, each an index subset of
  // `candidates` (distinct facts): `out` is resized to js.size() and
  // (*out)[k] is exactly FirstRetracted(J_k, base_facts), errors included,
  // where J_k holds candidates[c] for every c in js[k]. The default builds
  // each J_k in one Instance (SubsetInstance) and asks one j at a time; an
  // evaluator that shares work across a batch (DatalogQuery's evaluator
  // runs one fixpoint, or one well-founded alternation, whose facts carry
  // per-j world masks) overrides both this and MaxBatch.
  virtual void FirstRetractedBatch(
      const std::vector<Fact>& candidates, const FactSubsets& js,
      const std::vector<Fact>& base_facts,
      std::vector<Result<std::optional<Fact>>>* out);

  // The most j's one FirstRetractedBatch call shares work across; callers
  // gain nothing from larger batches, and at 1 (the default) nothing from
  // batching at all.
  virtual size_t MaxBatch() const { return 1; }
};

// A query: a generic mapping from instances over an input schema to
// instances over an output schema (Section 2). Implementations must be
// generic (commute with permutations of dom); GenericityProbe below
// property-tests this.
class Query {
 public:
  virtual ~Query() = default;

  virtual const Schema& input_schema() const = 0;
  virtual const Schema& output_schema() const = 0;

  // Evaluates the query. `input` facts outside the input schema are ignored
  // (callers should restrict first if that matters). Errors indicate
  // evaluation failure (e.g. divergence limits), never "empty result".
  virtual Result<Instance> Eval(const Instance& input) const = 0;

  // Eval for many inputs: `out` is resized to inputs.size() and (*out)[k]
  // is exactly Eval(*inputs[k]), errors included. The default asks one
  // input at a time; DatalogQuery overrides it to run up to 64 inputs per
  // world-masked fixpoint. The preservation sweeps and the genericity probe
  // hand over everything they will evaluate in one call.
  virtual void EvalBatch(const std::vector<const Instance*>& inputs,
                         std::vector<Result<Instance>>* out) const;

  // Evaluates the query on a ∪ b without requiring the caller to materialize
  // the union. Semantically identical to Eval(Instance::Union(a, b)); engines
  // that can seed from two instances directly (DatalogQuery, IlogQuery)
  // override this to skip the union copy, which the checker inner loops call
  // once per enumerated (I, J) pair.
  virtual Result<Instance> EvalUnion(const Instance& a,
                                     const Instance& b) const {
    return Eval(Instance::Union(a, b));
  }

  // Appends Q(input)'s facts to `out` in ascending Fact order (the same
  // deterministic order Instance::ForEachFact yields). Semantically identical
  // to materializing Eval's result and listing its facts; queries that can
  // produce the sorted fact stream directly (NativeQuery with a FactsFn)
  // override this to skip building the output Instance — the checker's inner
  // pair loop only needs a sorted-subset test, not a set.
  virtual Status EvalFacts(const Instance& input,
                           std::vector<Fact>* out) const {
    Result<Instance> r = Eval(input);
    if (!r.ok()) return r.status();
    r->ForEachFact(
        [&](uint32_t name, const Tuple& t) { out->emplace_back(name, t); });
    return Status::Ok();
  }

  // Creates an evaluator for repeated Q(i) ⊆ Q(i ∪ j) checks against one
  // fixed i (see UnionEvaluator). The default maintains i ∪ j as an overlay
  // on a persistent copy of i — j's facts inserted before an EvalFacts, a
  // sorted merge against base_facts, the overlay erased after — so no
  // per-pair Instance::Union copy is made. Engines that can do better
  // override this: DatalogQuery probes its evaluation stores and answers
  // batches of j's with one world-masked fixpoint; the native closure
  // queries merge j into a precomputed reachability matrix. Every
  // implementation returns the byte-identical first-retracted fact; only
  // the work per check differs.
  // `i` (and this query) must outlive the returned evaluator.
  virtual std::unique_ptr<UnionEvaluator> MakeUnionEvaluator(
      const Instance& i) const;

  // A short human-readable identifier used in reports.
  virtual std::string name() const = 0;
};

// The overlay-based evaluator behind Query::MakeUnionEvaluator's default,
// exposed so engine-specific evaluators have a fallback route for inputs
// they cannot serve (e.g. the closure evaluator past its vertex budget).
std::unique_ptr<UnionEvaluator> MakeOverlayUnionEvaluator(const Query& query,
                                                          const Instance& i);

// Wraps a C++ function as a Query. The function receives the input restricted
// to the input schema.
class NativeQuery : public Query {
 public:
  using EvalFn = std::function<Result<Instance>(const Instance&)>;
  // Appends the output facts in ascending Fact order (see Query::EvalFacts).
  using FactsFn = std::function<Status(const Instance&, std::vector<Fact>*)>;

  NativeQuery(std::string name, Schema input, Schema output, EvalFn fn)
      : name_(std::move(name)),
        input_(std::move(input)),
        output_(std::move(output)),
        fn_(std::move(fn)) {}

  NativeQuery(std::string name, Schema input, Schema output, FactsFn fn)
      : name_(std::move(name)),
        input_(std::move(input)),
        output_(std::move(output)),
        facts_fn_(std::move(fn)) {}

  const Schema& input_schema() const override { return input_; }
  const Schema& output_schema() const override { return output_; }
  std::string name() const override { return name_; }

  Result<Instance> Eval(const Instance& input) const override {
    // The checker loops always pass inputs already over the schema; skip the
    // full-instance Restrict copy then.
    const Instance* src = &input;
    Instance restricted;
    if (!input.IsOver(input_)) {
      restricted = input.Restrict(input_);
      src = &restricted;
    }
    if (fn_) return fn_(*src);
    std::vector<Fact> facts;
    Status s = facts_fn_(*src, &facts);
    if (!s.ok()) return s;
    Instance out;
    out.InsertSortedFacts(facts);
    return out;
  }

  Status EvalFacts(const Instance& input,
                   std::vector<Fact>* out) const override {
    if (!facts_fn_) return Query::EvalFacts(input, out);
    if (input.IsOver(input_)) return facts_fn_(input, out);
    return facts_fn_(input.Restrict(input_), out);
  }

  // Builds a query-specific UnionEvaluator for `i`, or returns nullptr to
  // decline (the default overlay evaluator is used then). Lets native
  // queries ship specialized union evaluation (graph_queries.cc wires a
  // closure-matrix evaluator onto TC and Q_TC) without subclassing.
  using UnionEvalFactory = std::function<std::unique_ptr<UnionEvaluator>(
      const Query&, const Instance&)>;
  void set_union_eval_factory(UnionEvalFactory factory) {
    union_eval_factory_ = std::move(factory);
  }

  std::unique_ptr<UnionEvaluator> MakeUnionEvaluator(
      const Instance& i) const override {
    if (union_eval_factory_) {
      std::unique_ptr<UnionEvaluator> ev = union_eval_factory_(*this, i);
      if (ev != nullptr) return ev;
    }
    return MakeOverlayUnionEvaluator(*this, i);
  }

 private:
  std::string name_;
  Schema input_;
  Schema output_;
  EvalFn fn_;        // exactly one of fn_ / facts_fn_ is set
  FactsFn facts_fn_;
  UnionEvalFactory union_eval_factory_;
};

// Checks Q(pi(I)) == pi(Q(I)) for the given permutation `pi` of adom(I)
// (extended with identity elsewhere). Returns OK, or an error describing the
// genericity violation / evaluation failure.
Status CheckGenericity(const Query& query, const Instance& input,
                       const std::map<Value, Value>& pi);

// How the exhaustive checkers use the genericity-based symmetry reduction
// (orbit-representative sweeps).
//   kAuto:    run ProbeGenericity first; reduce only when the probe passes.
//   kForceOn: reduce unconditionally (caller vouches for genericity).
//   kOff:     always run the full sweep.
enum class SymmetryMode {
  kAuto,
  kForceOn,
  kOff,
};

// Samples CheckGenericity over the bounded instance space the exhaustive
// checkers sweep: up to `samples` stride-spaced instances over
// {0..domain_size-1} with at most max_facts facts, each tested against a
// fixed family of permutations (a shift into a high value range, a shift
// into the checkers' fresh-value range {1000..}, the domain reversal, and
// the (0,1) transposition). Every sample and permuted image goes to one
// EvalBatch. Returns OK when every probe commutes; the first violation (or
// evaluation error), in sample then permutation order, otherwise. A passing probe is evidence,
// not proof — exactly the epistemic status of the bounded sweeps it guards.
Status ProbeGenericity(const Query& query, size_t domain_size,
                       size_t max_facts, size_t samples = 12);

// Settles a sweep's SymmetryMode: kForceOn and kOff stand; kAuto becomes
// kForceOn when ProbeGenericity passes over {0..domain_size-1} with at most
// min(max_facts, 2) facts (around a percent of a full sweep), else kOff —
// any probe failure, evaluation errors included, means the full sweep runs,
// which is always sound. Sweeps with equal bounds over one query can share
// one resolution.
SymmetryMode ResolveSymmetry(const Query& query, SymmetryMode mode,
                             size_t domain_size, size_t max_facts);

}  // namespace calm

#endif  // CALM_BASE_QUERY_H_
