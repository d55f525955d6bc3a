#ifndef CALM_DATALOG_EVALUATOR_H_
#define CALM_DATALOG_EVALUATOR_H_

#include <cstdint>
#include <string>

#include "base/instance.h"
#include "base/json.h"
#include "base/status.h"
#include "datalog/analysis.h"
#include "datalog/ast.h"
#include "datalog/stratifier.h"

namespace calm::datalog {

struct EvalOptions {
  // Greedily reorder positive body atoms at rule-compile time so that each
  // atom shares as many bound variables as possible with the atoms before
  // it (avoids accidental cartesian products in carelessly written rules).
  // Purely a performance knob; results are identical (ablation-tested).
  bool reorder_joins = true;
  // Abort with ResourceExhausted when more facts than this are stored, or
  // when one rule's partial matches need more frame slots than this.
  size_t max_total_facts = 10'000'000;
};

struct EvalStats {
  size_t derived_facts = 0;      // facts derived beyond the input
  size_t fixpoint_rounds = 0;    // delta rounds across all strata
  size_t rule_applications = 0;  // satisfying valuations found (incl. dups)
};

// The canonical serialization: {"derived_facts": 4, ...}. The k=v string
// below and the bench --json sections are both derived from this object, so
// human and machine reports share one field list and can never disagree.
Json EvalStatsToJson(const EvalStats& stats);

// "derived_facts=4 fixpoint_rounds=3 rule_applications=17", derived from
// EvalStatsToJson by walking its members in order.
std::string EvalStatsToString(const EvalStats& stats);

// Evaluates the (syntactically stratifiable) program under the stratified
// semantics. Returns the full instance over sch(P): the input (restricted to
// sch(P)) plus all derived facts. Errors on unstratifiable programs and on
// resource exhaustion.
Result<Instance> Evaluate(const Program& program, const Instance& input,
                          const EvalOptions& options = {},
                          EvalStats* stats = nullptr);

// Evaluates an ILOG¬ program (invention atoms allowed in heads) under the
// stratified semantics with Skolem-functor value invention (Section 5.2):
// deriving R(*, a1..ak) creates (or reuses) the invented value f_R(a1..ak).
// Divergent programs hit options.max_total_facts and return
// ResourceExhausted, matching the paper's "output undefined" case.
// `invented_count`, when non-null, receives the number of distinct invented
// values created.
Result<Instance> EvaluateIlog(const Program& program, const Instance& input,
                              const EvalOptions& options = {},
                              EvalStats* stats = nullptr,
                              size_t* invented_count = nullptr);

// Evaluates the least fixpoint of `program` where every *negated idb* body
// atom !A is satisfied iff A is absent from `neg_reference` (negated edb
// atoms are also checked against `neg_reference`). This is the Gamma
// operator of the alternating-fixpoint characterization of the well-founded
// semantics; stratifiability is not required. Returns input + derived facts.
Result<Instance> EvaluateWithFixedNegation(const Program& program,
                                           const Instance& input,
                                           const Instance& neg_reference,
                                           const EvalOptions& options = {},
                                           EvalStats* stats = nullptr);

}  // namespace calm::datalog

#endif  // CALM_DATALOG_EVALUATOR_H_
