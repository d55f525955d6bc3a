#ifndef CALM_DATALOG_PREPARED_H_
#define CALM_DATALOG_PREPARED_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <vector>

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

class IncrementalEval;

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
  // The engine this program was compiled for (options().engine resolved
  // against DefaultEvalEngine() at Prepare time).
  EvalEngine engine() const { return engine_; }
  // Whether union re-evaluation may run incrementally (options().incremental
  // resolved against DefaultIncrementalMode() at Prepare time). Never
  // kDefault after Prepare.
  IncrementalMode incremental() const { return incremental_; }

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
  // reads Adom and options().populate_adom is set.
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

  // Rows of that fixpoint over all relations, the seed included (what a
  // union evaluator sizes its route by).
  Result<size_t> FixpointRows(std::initializer_list<const Instance*> parts,
                              const Schema* pre_restrict) const;

  // Materializes the Q(base) fixpoint once into a private database and
  // returns an evaluator whose EvalOverlay computes (and FirstMissing
  // probes) Q(base ∪ J) for many small J without re-running from scratch
  // (see IncrementalEval). The
  // schema arguments mirror EvalParts' restriction semantics and are copied;
  // this PreparedProgram must outlive the returned evaluator. Always
  // succeeds: configurations the delta machinery cannot serve (tree engine,
  // naive iteration, fixed negation, ILOG invention, or a failed base
  // fixpoint) yield an evaluator whose every overlay transparently falls
  // back to the from-scratch EvalParts path.
  std::unique_ptr<IncrementalEval> BeginIncremental(
      const Instance& base, const Schema* pre_restrict = nullptr,
      const Schema* post_restrict = nullptr) const;

 private:
  friend class IncrementalEval;
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
  void SeedInto(Database* db, std::initializer_list<const Instance*> parts,
                const Schema* pre_restrict) const;
  // Seeds `parts` into the thread-local scratch database and runs every
  // stratum over it (EvalParts minus the materialization).
  Result<Database*> RunOnScratch(std::initializer_list<const Instance*> parts,
                                 const Schema* pre_restrict, EvalStats* stats,
                                 size_t* invented_count) const;

  ProgramInfo info_;
  EvalOptions options_;
  EvalEngine engine_ = EvalEngine::kBytecode;
  IncrementalMode incremental_ = IncrementalMode::kOn;
  bool fixed_negation_ = false;
  std::vector<CompiledRule> compiled_;
  BytecodeProgram bytecode_;  // compiled iff engine_ == kBytecode
  std::vector<Stratum> strata_;
  Schema adom_source_;  // edb(P) minus Adom: where seeded Adom values come from
};

// Delta-driven re-evaluation over one fixed base instance: the Q(base)
// fixpoint stays materialized in a private epoch-versioned database, and
// each EvalOverlay pushes the overlay J as one epoch, feeds its facts
// through the bytecode row-range machinery as external semi-naive deltas,
// runs only the strata the new facts can reach, and rolls the epoch back —
// so checking many small J against one base costs O(|J| + derived delta)
// per check instead of a full fixpoint.
//
// Strata whose negated atoms read a changed relation cannot be continued
// (new facts can retract derivations); they are recomputed from their
// pre-stratum watermark, their base rows are restored before the rollback,
// and the retraction taints every downstream reader. When no stratum needed
// recomputation, the run itself proves Q(base) ⊆ Q(base ∪ J) — the common
// monotone case answers without materializing any output at all.
//
// Output equivalence with EvalParts({&base, &overlay}) is exact: any
// configuration or runtime condition the delta path cannot reproduce
// byte-identically (unsupported options, IDB facts in the overlay, a
// mid-delta resource error) reroutes that overlay through the from-scratch
// path. Pinned by tests/incremental_test.cc and the CI engine-diff leg.
//
// Not thread-safe; create one evaluator per thread (the parallel checker
// sweeps create one per outer I, which lives on a single shard).
class IncrementalEval {
 public:
  // What one EvalOverlay did, beyond its Result status.
  struct Overlay {
    // The run proved Q(base) ⊆ Q(base ∪ overlay) without materializing the
    // result (no stratum recomputed; every store only grew). `out_facts`
    // was not touched: callers doing a retraction check need no merge.
    bool superset_of_base = false;
    // The overlay ran through the from-scratch EvalParts path.
    bool fell_back = false;
    // FirstMissing's answer: the first probe fact absent from the result.
    std::optional<Fact> missing;
  };

  // Evaluates Q(base ∪ overlay). `out_facts`, when non-null, receives the
  // result facts in ascending order — except when the overlay proves
  // supersetness and `materialize` is false, in which case it is left
  // untouched (see Overlay::superset_of_base). The database is always
  // rolled back to the base fixpoint before returning. `stats` (optional)
  // receives delta-relative tallies; EvalStats parity with the from-scratch
  // path is NOT guaranteed, only fact/verdict parity is.
  Result<Overlay> EvalOverlay(const Instance& overlay,
                              std::vector<Fact>* out_facts,
                              bool materialize = false,
                              EvalStats* stats = nullptr) {
    return Run(overlay, out_facts, materialize, nullptr, stats);
  }

  // The union check: the first fact of `probe` (ascending) missing from
  // Q(base ∪ overlay), or nullopt. Unless the overlay proves supersetness,
  // the facts are probed in the stores before the rollback; nothing is
  // materialized. Answers and errors equal PreparedProgram::FirstMissing
  // over {base, overlay}, which is also the fallback route.
  Result<std::optional<Fact>> FirstMissing(const Instance& overlay,
                                           const std::vector<Fact>& probe);

  // Whether overlays can run incrementally at all; false means every
  // EvalOverlay takes the from-scratch route.
  bool supported() const { return supported_; }

 private:
  friend class PreparedProgram;
  IncrementalEval() = default;

  bool Admitted(uint32_t name, const Tuple& t) const;
  // EvalOverlay and FirstMissing: a non-null `probe` asks for
  // Overlay::missing instead of output facts.
  Result<Overlay> Run(const Instance& overlay, std::vector<Fact>* out_facts,
                      bool materialize, const std::vector<Fact>* probe,
                      EvalStats* stats);
  Result<Overlay> Fallback(const Instance& overlay, std::vector<Fact>* out,
                           const std::vector<Fact>* probe, EvalStats* stats);
  void SaveStratumRows(size_t stratum);
  void RestoreStratumRows(size_t stratum);

  const PreparedProgram* prog_ = nullptr;
  Instance base_;              // fallback seeding (and error replay)
  std::optional<Schema> pre_;  // owned copies of the restriction schemas
  std::optional<Schema> post_;
  Database db_;       // the materialized base fixpoint
  bool supported_ = false;
  Status base_status_;             // base fixpoint outcome
  std::vector<uint32_t> idb_rels_;  // sorted heads across all strata

  // Parallel to prog_->strata_ and each stratum's `growing` list: the
  // growing stores' row counts before (wm_) and after (end_) that stratum's
  // base fixpoint ran.
  std::vector<std::vector<uint32_t>> wm_;
  std::vector<std::vector<uint32_t>> end_;
  // Base rows [wm, end) as flat code vectors, saved lazily the first time a
  // stratum is recomputed (base rows never change, so once is enough) and
  // re-inserted after every overlay that recomputed the stratum — restoring
  // the exact row positions makes the epoch rollback a no-op for them.
  std::vector<std::vector<std::vector<uint32_t>>> saved_;
  std::vector<bool> saved_ready_;
};

}  // namespace calm::datalog

#endif  // CALM_DATALOG_PREPARED_H_
