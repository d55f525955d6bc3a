#ifndef CALM_DATALOG_PROGRAM_H_
#define CALM_DATALOG_PROGRAM_H_

#include <memory>
#include <string>

#include "base/query.h"
#include "datalog/analysis.h"
#include "datalog/ast.h"
#include "datalog/evaluator.h"
#include "datalog/fragment.h"
#include "datalog/prepared.h"

namespace calm::datalog {

// A Datalog¬ program packaged as a Query (Section 2, "P computes Q when
// Q(I) = P(I)|sigma' "): the input schema is edb(P) minus the Adom
// convenience relation, the output schema is the program's marked output
// relations, and evaluation restricts P(I) to the output schema.
class DatalogQuery : public Query {
 public:
  enum class Semantics {
    kStratified,   // Section 2 semantics; requires stratifiability
    kWellFounded,  // output = definitely-true facts (used for win-move)
  };

  // Validates the program (analysis; stratifiability when kStratified) and
  // builds the query. `name` defaults to the fragment name when empty.
  static Result<DatalogQuery> Create(Program program, std::string name,
                                     Semantics semantics = Semantics::kStratified,
                                     EvalOptions options = {});

  // Create from program text (see parser.h), aborting on invalid programs;
  // for statically known programs in tests/benches/examples.
  static DatalogQuery FromTextOrDie(std::string_view text, std::string name,
                                    Semantics semantics = Semantics::kStratified,
                                    EvalOptions options = {});

  const Schema& input_schema() const override { return input_schema_; }
  const Schema& output_schema() const override { return output_schema_; }
  std::string name() const override { return name_; }
  Result<Instance> Eval(const Instance& input) const override;
  // Seeds the prepared program from both instances directly — no
  // materialized union (the checker inner loops call this per (I, J) pair).
  Result<Instance> EvalUnion(const Instance& a,
                             const Instance& b) const override;
  // Up to 64 inputs per masked run (PreparedProgram::EvalBatch): one
  // fixpoint, or one alternation of world-masked Gammas, whose world k
  // materializes Q(inputs[k]). A run that fails is re-asked one input at a
  // time, so results and errors equal Eval's input by input.
  void EvalBatch(const std::vector<const Instance*>& inputs,
                 std::vector<Result<Instance>>* out) const override;
  // Union checks that probe the evaluation stores instead of materializing
  // Q(i ∪ j). Under stratified semantics a single check re-runs the
  // fixpoint over i ∪ j from scratch (PreparedProgram::FirstMissing), and a
  // batch of up to 64 j's runs one fixpoint whose facts carry per-j world
  // masks (PreparedProgram::FirstMissingBatch); a failed batch is re-asked
  // one j at a time. Under well-founded semantics each check runs the
  // alternation over i ∪ j and probes its definitely-true facts, and a
  // batch runs one alternation of world-masked Gammas. Verdicts and errors
  // are byte-identical on every route.
  std::unique_ptr<UnionEvaluator> MakeUnionEvaluator(
      const Instance& i) const override;

  const Program& program() const { return program_; }
  const ProgramInfo& info() const { return prepared_->info(); }
  const FragmentInfo& fragment() const { return fragment_; }
  Semantics semantics() const { return semantics_; }
  // The compile-once form both Eval paths run over.
  const PreparedProgram& prepared() const { return *prepared_; }

 private:
  DatalogQuery() = default;

  Result<Instance> EvalSeeded(std::initializer_list<const Instance*> parts)
      const;

  Program program_;
  // shared_ptr: DatalogQuery is copied freely (FromTextOrDie returns by
  // value); the prepared form is immutable so copies share it.
  std::shared_ptr<const PreparedProgram> prepared_;
  FragmentInfo fragment_;
  Schema input_schema_;
  Schema output_schema_;
  std::string name_;
  Semantics semantics_ = Semantics::kStratified;
};

}  // namespace calm::datalog

#endif  // CALM_DATALOG_PROGRAM_H_
