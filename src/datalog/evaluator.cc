#include "datalog/evaluator.h"

#include <atomic>
#include <cstdlib>

#include "datalog/prepared.h"

// One-shot entry points: prepare, run once, discard. Callers that evaluate a
// program repeatedly should hold a PreparedProgram (datalog/prepared.h) —
// DatalogQuery/IlogQuery and the transducers do — so analysis,
// stratification, and rule compilation are paid once instead of per call.

namespace calm::datalog {

namespace {

EvalEngine EnvEngine() {
  const char* env = std::getenv("CALM_ENGINE");
  if (env != nullptr && std::string_view(env) == "tree") {
    return EvalEngine::kTree;
  }
  return EvalEngine::kBytecode;
}

std::atomic<EvalEngine>& GlobalEngine() {
  static std::atomic<EvalEngine> engine{EnvEngine()};
  return engine;
}

int EnvEvalThreads() {
  const char* env = std::getenv("CALM_EVAL_THREADS");
  if (env != nullptr) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1;
}

std::atomic<int>& GlobalEvalThreads() {
  static std::atomic<int> threads{EnvEvalThreads()};
  return threads;
}

}  // namespace

EvalEngine DefaultEvalEngine() {
  return GlobalEngine().load(std::memory_order_relaxed);
}

void SetDefaultEvalEngine(EvalEngine engine) {
  GlobalEngine().store(
      engine == EvalEngine::kDefault ? EnvEngine() : engine,
      std::memory_order_relaxed);
}

Result<EvalEngine> ParseEvalEngine(std::string_view name) {
  if (name == "tree") return EvalEngine::kTree;
  if (name == "bytecode") return EvalEngine::kBytecode;
  return InvalidArgumentError("unknown engine (want tree|bytecode): " +
                              std::string(name));
}

int DefaultEvalThreads() {
  return GlobalEvalThreads().load(std::memory_order_relaxed);
}

void SetDefaultEvalThreads(int n) {
  GlobalEvalThreads().store(n > 0 ? n : EnvEvalThreads(),
                            std::memory_order_relaxed);
}

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
