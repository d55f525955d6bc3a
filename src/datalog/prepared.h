#ifndef CALM_DATALOG_PREPARED_H_
#define CALM_DATALOG_PREPARED_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "base/enumerator.h"
#include "base/instance.h"
#include "base/schema.h"
#include "base/status.h"
#include "datalog/analysis.h"
#include "datalog/ast.h"
#include "datalog/bytecode.h"
#include "datalog/compiled.h"
#include "datalog/evaluator.h"
#include "datalog/relstore.h"
#include "datalog/stratifier.h"

namespace calm::datalog {

// A program compiled for repeated evaluation: analysis, stratification, join
// ordering, and rule compilation run exactly once at Prepare time; each Eval
// is a seed-and-run fixpoint over the compiled form with fresh scratch.
// Instances of this class are immutable after Prepare, so one prepared
// program can be evaluated concurrently from many threads (the parallel
// monotonicity checkers do exactly that).
//
// Result and EvalStats equivalence with the one-shot entry points in
// evaluator.h is pinned by tests/prepared_test.cc.
class PreparedProgram {
 public:
  // Analyzes, stratifies, and compiles `program` (errors exactly when
  // Evaluate/EvaluateIlog would: analysis first, then stratification).
  // `options.reorder_joins` is baked into the compiled form; the remaining
  // options govern every subsequent run.
  static Result<PreparedProgram> Prepare(const Program& program,
                                         const EvalOptions& options = {},
                                         bool allow_invention = false);

  // Analyzes and compiles for the fixed-negation (Gamma) operator: a single
  // fixpoint with every head growing, no stratifiability requirement.
  static Result<PreparedProgram> PrepareFixedNegation(
      const Program& program, const EvalOptions& options = {});

  const ProgramInfo& info() const { return info_; }
  const EvalOptions& options() const { return options_; }

  // Stratified (or ILOG) evaluation; equals Evaluate()/EvaluateIlog() on
  // this program. Only valid on Prepare()-built instances.
  Result<Instance> Eval(const Instance& input, EvalStats* stats = nullptr,
                        size_t* invented_count = nullptr) const;

  // As Eval over the set union of `parts`, without materializing the union.
  // When `pre_restrict` is non-null, facts outside that schema are dropped
  // while seeding — equivalent to restricting each part first, minus the
  // intermediate Instance copies. When `post_restrict` is non-null, only
  // facts it admits are materialized into the result — equivalent to
  // .Restrict(*post_restrict) on the full result, again minus the copy.
  // Runs over thread-local scratch storage, so repeated calls on one thread
  // allocate almost nothing.
  Result<Instance> EvalParts(std::initializer_list<const Instance*> parts,
                             const Schema* pre_restrict,
                             const Schema* post_restrict = nullptr,
                             EvalStats* stats = nullptr,
                             size_t* invented_count = nullptr) const;

  // The Gamma operator: least fixpoint with negated atoms tested against the
  // fixed `neg_reference`. Only valid on PrepareFixedNegation()-built
  // instances; equals EvaluateWithFixedNegation() on this program.
  Result<Instance> EvalFixedNegation(const Instance& input,
                                     const Instance& neg_reference,
                                     EvalStats* stats = nullptr) const;

  // --- Seed/run split (the well-founded alternation reuses one seed) ---

  // Builds the seed database: the union of `parts` restricted to sch(P)
  // (and `pre_restrict`, when given), plus Adom facts when the program
  // reads Adom.
  Database MakeSeed(std::initializer_list<const Instance*> parts,
                    const Schema* pre_restrict) const;

  // Runs the fixed-negation fixpoint in place over `db` (a copy of a seed
  // built by MakeSeed), testing negated atoms against `neg_db`. When both
  // share one dictionary (Database::ShareDict), the anti-probes run in code
  // space.
  Status RunFixedNegation(Database* db, const Database& neg_db,
                          EvalStats* stats = nullptr) const;

  // --- Union checks: Q(I) ⊆ Q(I ∪ J) ---

  // The first fact of `probe` (ascending fact order) missing from the
  // fixpoint EvalParts(parts, pre_restrict) would compute, or nullopt when
  // all are present. Same seeding and same errors as EvalParts, but the
  // result is probed in the thread-local stores instead of materialized.
  Result<std::optional<Fact>> FirstMissing(
      std::initializer_list<const Instance*> parts, const Schema* pre_restrict,
      const std::vector<Fact>& probe) const;

  // --- Batched union checks: one masked fixpoint for many J's ---

  // The most J's one FirstMissingBatch answers: one bit of a world mask each.
  static constexpr size_t kMaxUnionBatch = 64;

  // Whether FirstMissingBatch can serve this program: no rule invents
  // (stratified or fixed-negation alike). Inventing programs are asked one
  // J at a time.
  bool SupportsUnionBatch() const;

  // (*out)[k] = FirstMissing({&base, &J_k}, pre_restrict, probe) for every
  // k, where J_k holds candidates[c] for every c in js[k] — or, on a
  // PrepareFixedNegation()-built program, the first probe fact missing from
  // the final lo of RunAlternatingFixpoint(base ∪ J_k) — from one run over
  // masked databases (RelStore's world masks): base's facts hold in every
  // world and each candidate is seeded once, in the worlds whose subset
  // holds it; world k's answer is the first probe fact whose world set (in
  // the fixpoint, or in lo) lacks bit k. A stratified run is one fixpoint
  // over the thread-local scratch; a well-founded run alternates
  // lo := Gamma(hi), hi := Gamma(lo) with masked Gammas until the summed
  // world-set sizes of lo and hi repeat, and stores the number of Gamma
  // steps in *gammas when non-null. Requires SupportsUnionBatch() and 1 to
  // kMaxUnionBatch subsets. On any error — max_total_facts included — the
  // caller re-asks the batch one J at a time through the per-J route, which
  // reproduces that route's exact errors; a run that succeeds implies no
  // world exceeded the limit (each world's facts are a subset of the stored
  // rows at every round of every Gamma).
  Status FirstMissingBatch(const Instance& base,
                           const std::vector<Fact>& candidates,
                           const FactSubsets& js, const Schema* pre_restrict,
                           const std::vector<Fact>& probe,
                           std::vector<std::optional<Fact>>* out,
                           size_t* gammas = nullptr) const;

  // (*out)[k] = EvalParts({js[k]}, pre_restrict, post_restrict) for every
  // k — or, on a PrepareFixedNegation()-built program, the final lo of
  // RunAlternatingFixpoint(js[k]) restricted to post_restrict — from one
  // masked run with js[k]'s facts in world k, read out by materializing
  // world k's facts (the rows whose mask holds bit k). Same requirements
  // and the same error contract: on any error the caller re-asks one input
  // at a time, and a run that succeeds implies no world exceeded
  // max_total_facts.
  Status EvalBatch(const std::vector<const Instance*>& js,
                   const Schema* pre_restrict, const Schema* post_restrict,
                   std::vector<Instance>* out, size_t* gammas = nullptr) const;

 private:
  // One stratum of the prepared form; fixed-negation programs have exactly
  // one with every rule in it.
  struct Stratum {
    std::vector<uint32_t> rules;  // indices into compiled_, stratum order
    // Semi-naive delta positions: (rule index into compiled_, pos-atom
    // index) for every atom over a relation that grows in this stratum, in
    // rule-major order — the same evaluation order as the one-shot path.
    std::vector<std::pair<uint32_t, uint32_t>> delta_sites;
    // Head relations of this stratum (sorted, unique): the bytecode
    // driver's row-range deltas snapshot these stores' sizes per round.
    std::vector<uint32_t> growing;
  };

  PreparedProgram() = default;

  void CompileRules(const Program& program);
  Stratum MakeStratum(const Program& program,
                      const std::vector<size_t>& rule_indices) const;
  // Runs strata_[index] to its fixpoint over `db`, testing negated atoms
  // against `negation_db` (db itself under stratified semantics, the fixed
  // reference under Gamma). The one driver behind every evaluation path.
  Status RunStratum(size_t index, Database* db, const Database* negation_db,
                    EvalStats* stats, InventionTable* invention) const;
  void SeedInto(Database* db, std::initializer_list<const Instance*> parts,
                const Schema* pre_restrict) const;
  // What one masked run seeds, world k of worlds(): either `base` in every
  // world and each candidates[c] once, in the worlds whose subset holds c
  // (a union-check batch), or inputs[k] in world k (an evaluation batch).
  struct MaskedSeed {
    const Instance* base = nullptr;
    const std::vector<Fact>* candidates = nullptr;
    const FactSubsets* subsets = nullptr;
    const std::vector<const Instance*>* inputs = nullptr;
    size_t worlds() const {
      return inputs != nullptr ? inputs->size() : subsets->size();
    }
  };
  // SeedInto for a masked database. Without `with_adom`, no Adom facts are
  // seeded (the alternation's initial lo).
  void SeedMasked(Database* db, const MaskedSeed& seed,
                  const Schema* pre_restrict, bool with_adom = true) const;
  // The one masked seed-and-run behind FirstMissingBatch and EvalBatch:
  // seeds `seed`, then runs every stratum over the thread-local scratch,
  // or — on a fixed-negation program — the masked alternation into *lo,
  // storing its Gamma steps in *gammas when non-null. Returns the database
  // holding every world's answer.
  Result<const Database*> RunMasked(const MaskedSeed& seed,
                                    const Schema* pre_restrict,
                                    std::optional<Database>* lo,
                                    size_t* gammas) const;
  // The well-founded half of RunMasked: leaves the final masked lo in *lo
  // (RunAlternatingFixpoint, every world at once) and returns the number of
  // Gamma steps it ran.
  Result<size_t> AlternateMasked(const MaskedSeed& seed,
                                 const Schema* pre_restrict, uint64_t worlds,
                                 Database* lo) const;
  // Seeds `parts` into the thread-local scratch database and runs every
  // stratum over it (EvalParts minus the materialization).
  Result<Database*> RunOnScratch(std::initializer_list<const Instance*> parts,
                                 const Schema* pre_restrict, EvalStats* stats,
                                 size_t* invented_count) const;

  ProgramInfo info_;
  EvalOptions options_;
  bool fixed_negation_ = false;
  std::vector<CompiledRule> compiled_;
  BytecodeProgram bytecode_;
  std::vector<Stratum> strata_;
  Schema adom_source_;  // edb(P) minus Adom: where seeded Adom values come from
};

}  // namespace calm::datalog

#endif  // CALM_DATALOG_PREPARED_H_
