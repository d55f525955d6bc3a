#include "datalog/evaluator.h"

#include "datalog/prepared.h"

// One-shot entry points: prepare, run once, discard. Callers that evaluate a
// program repeatedly should hold a PreparedProgram (datalog/prepared.h) —
// DatalogQuery/IlogQuery and the transducers do — so analysis,
// stratification, and rule compilation are paid once instead of per call.

namespace calm::datalog {

Json EvalStatsToJson(const EvalStats& stats) {
  Json out = Json::Object();
  out.Set("derived_facts", Json::Uint(stats.derived_facts));
  out.Set("fixpoint_rounds", Json::Uint(stats.fixpoint_rounds));
  out.Set("rule_applications", Json::Uint(stats.rule_applications));
  return out;
}

std::string EvalStatsToString(const EvalStats& stats) {
  // Rendered from the JSON form so the two reports share one field list.
  std::string out;
  const Json json = EvalStatsToJson(stats);
  for (const auto& [key, value] : json.members()) {
    if (!out.empty()) out += ' ';
    out += key + "=" + std::to_string(value.uint_value());
  }
  return out;
}

Result<Instance> Evaluate(const Program& program, const Instance& input,
                          const EvalOptions& options, EvalStats* stats) {
  CALM_ASSIGN_OR_RETURN(PreparedProgram prepared,
                        PreparedProgram::Prepare(program, options));
  return prepared.Eval(input, stats);
}

Result<Instance> EvaluateIlog(const Program& program, const Instance& input,
                              const EvalOptions& options, EvalStats* stats,
                              size_t* invented_count) {
  CALM_ASSIGN_OR_RETURN(
      PreparedProgram prepared,
      PreparedProgram::Prepare(program, options, /*allow_invention=*/true));
  return prepared.Eval(input, stats, invented_count);
}

Result<Instance> EvaluateWithFixedNegation(const Program& program,
                                           const Instance& input,
                                           const Instance& neg_reference,
                                           const EvalOptions& options,
                                           EvalStats* stats) {
  CALM_ASSIGN_OR_RETURN(PreparedProgram prepared,
                        PreparedProgram::PrepareFixedNegation(program, options));
  return prepared.EvalFixedNegation(input, neg_reference, stats);
}

}  // namespace calm::datalog
