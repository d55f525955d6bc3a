#ifndef CALM_DATALOG_WELLFOUNDED_H_
#define CALM_DATALOG_WELLFOUNDED_H_

#include <initializer_list>

#include "base/instance.h"
#include "base/status.h"
#include "datalog/ast.h"
#include "datalog/evaluator.h"
#include "datalog/prepared.h"

namespace calm::datalog {

// The three-valued well-founded model of a Datalog¬ program, computed by the
// alternating fixpoint: Gamma(S) is the least fixpoint of the program with
// negated atoms evaluated against the fixed set S; the sequence
// lo := Gamma(hi), hi := Gamma(lo) converges to the true / possible sets.
// For stratifiable programs this coincides with the stratified semantics
// (property-tested).
struct WellFoundedModel {
  Instance definitely;  // true facts (includes the input facts)
  Instance possibly;    // true or undefined facts; superset of `definitely`

  // Facts that are undefined (possibly \ definitely).
  Instance Undefined() const {
    return Instance::Difference(possibly, definitely);
  }
};

// Computes the well-founded model. Works for arbitrary (safe) Datalog¬
// programs, stratifiable or not (e.g. win-move).
Result<WellFoundedModel> EvaluateWellFounded(const Program& program,
                                             const Instance& input,
                                             const EvalOptions& options = {});

// Prepared form: `prepared` must come from PreparedProgram::
// PrepareFixedNegation. The input is the set union of `parts` (optionally
// pre-restricted to `pre_restrict`); the seed database is built once and
// reused across every Gamma call of the alternation instead of re-restricting
// and re-compiling per call.
Result<WellFoundedModel> EvaluateWellFounded(
    const PreparedProgram& prepared,
    std::initializer_list<const Instance*> parts,
    const Schema* pre_restrict = nullptr);

// The alternation behind EvaluateWellFounded, kept in code space: no Gamma
// step builds a Database from an Instance or materializes one. On success
// `lo` holds the definitely-true facts and `hi` the possibly-true ones, as
// databases sharing the seed's dictionary (Database::ShareDict). Union
// checks probe `lo` directly.
Status RunAlternatingFixpoint(const PreparedProgram& prepared,
                              std::initializer_list<const Instance*> parts,
                              const Schema* pre_restrict, Database* lo,
                              Database* hi);

// The "doubled program" transformation (paper's conclusion): given a
// Datalog¬ program P over predicates R, produces a *stratifiable* program
// over duplicated predicates whose stratified evaluation computes the
// alternating fixpoint of P. Each idb predicate R gets an under-approximation
// R_lo and an over-approximation R_hi; the returned program has 2*k strata
// for k alternation steps and is mainly used to cross-validate
// EvaluateWellFounded and to show that connected Datalog under the
// well-founded semantics stays within Mdisjoint. `steps` bounds the number
// of alternation rounds (enough rounds = exact on inputs whose alternation
// converges within them; ConvergedWithin checks this).
struct DoubledProgram {
  Program program;
  // Name of the lo/hi copy of relation `rel` at alternation round `round`.
  static std::string LoName(const std::string& rel, size_t round);
  static std::string HiName(const std::string& rel, size_t round);
};
DoubledProgram BuildDoubledProgram(const Program& program,
                                   const ProgramInfo& info, size_t steps);

}  // namespace calm::datalog

#endif  // CALM_DATALOG_WELLFOUNDED_H_
