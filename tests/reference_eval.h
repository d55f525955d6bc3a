// A reference Datalog¬ evaluator for the differential tests: naive iteration
// over Instances, straight from the Program AST — no indexes, no join order,
// no compiled form. It shares only Analyze and Stratify with the production
// engine (datalog/prepared.h), so a bug in rule compilation, delta sites,
// seeding or invention there shows up as a disagreement.
//
// Conventions follow PreparedProgram's: the input is restricted to sch(P)
// (and `pre_restrict`); a program that reads Adom also gets one Adom fact per
// value of an admitted edb fact; a stratum that derives something and ends
// above `max_facts` facts is ResourceExhausted. Invented values are Skolem
// terms: one value per (relation, argument tuple).

#ifndef CALM_TESTS_REFERENCE_EVAL_H_
#define CALM_TESTS_REFERENCE_EVAL_H_

#include <cstddef>
#include <string>

#include "base/instance.h"
#include "base/query.h"
#include "base/schema.h"
#include "base/status.h"
#include "datalog/ast.h"
#include "datalog/evaluator.h"

namespace calm::datalog::reference {

constexpr size_t kDefaultMaxFacts = EvalOptions{}.max_total_facts;

// The stratified (or, with `allow_invention`, ILOG) model of `program` on
// `input`: the seeded input plus every derived fact.
Result<Instance> Eval(const Program& program, const Instance& input,
                      size_t max_facts = kDefaultMaxFacts,
                      bool allow_invention = false,
                      const Schema* pre_restrict = nullptr);

// The Gamma operator: the least fixpoint of every rule at once, with each
// negated atom tested against `neg_reference` (stratifiability not needed).
Result<Instance> Gamma(const Program& program, const Instance& input,
                       const Instance& neg_reference,
                       size_t max_facts = kDefaultMaxFacts,
                       const Schema* pre_restrict = nullptr);

// The well-founded model by the alternating fixpoint: lo starts as the seed
// without Adom; hi := Gamma(lo), lo := Gamma(hi) until both repeat. Clears
// *monotone (when non-null) if lo ever shrinks or hi ever grows.
struct WellFoundedModel {
  Instance definitely, possibly;
};
Result<WellFoundedModel> WellFounded(const Program& program,
                                     const Instance& input,
                                     size_t max_facts = kDefaultMaxFacts,
                                     const Schema* pre_restrict = nullptr,
                                     bool* monotone = nullptr);

// `program` as a Query the way DatalogQuery packages it — input schema
// edb(P) minus Adom, output schema the marked outputs — evaluated by the
// reference (the definitely-true facts when `well_founded`). Union checks
// take the generic per-J overlay route.
Result<NativeQuery> MakeQuery(const Program& program, std::string name,
                              bool well_founded);

}  // namespace calm::datalog::reference

#endif  // CALM_TESTS_REFERENCE_EVAL_H_
