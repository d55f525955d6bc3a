#include "datalog/program.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "base/metrics.h"
#include "base/trace.h"
#include "datalog/parser.h"
#include "datalog/wellfounded.h"

namespace calm::datalog {

namespace {

// Union checks that re-evaluate i ∪ j from scratch and probe Q(i)'s facts in
// the evaluation stores: the stratified fixpoint in the thread-local stores,
// or the well-founded alternation's final lo (the definitely-true facts).
// Nothing about i is kept but the instance itself. Batches of j's are
// answered by one masked run — a fixpoint, or an alternation of masked
// Gammas (PreparedProgram::FirstMissingBatch); a batch whose run fails is
// re-asked one j at a time, which reproduces the per-j route's errors
// exactly.
class ScratchUnionEvaluator : public UnionEvaluator {
 public:
  ScratchUnionEvaluator(const DatalogQuery& query, const Instance& i)
      : query_(query), i_(i) {
    // DatalogQuery::Create never allows invention.
    assert(query.prepared().SupportsUnionBatch());
  }

  Result<std::optional<Fact>> FirstRetracted(
      const Instance& j, const std::vector<Fact>& base_facts) override {
    const PreparedProgram& prepared = query_.prepared();
    const Schema* input = &query_.input_schema();
    if (query_.semantics() == DatalogQuery::Semantics::kStratified) {
      return prepared.FirstMissing({&i_, &j}, input, base_facts);
    }
    Database lo, hi;
    CALM_RETURN_IF_ERROR(
        RunAlternatingFixpoint(prepared, {&i_, &j}, input, &lo, &hi));
    return lo.FirstAbsent(base_facts);
  }

  void FirstRetractedBatch(
      const std::vector<Fact>& candidates, const FactSubsets& js,
      const std::vector<Fact>& base_facts,
      std::vector<Result<std::optional<Fact>>>* out) override {
    if (js.size() < 2) {
      UnionEvaluator::FirstRetractedBatch(candidates, js, base_facts, out);
      return;
    }
    TraceSpan span("datalog.union_batch");
    span.Arg("worlds", static_cast<int64_t>(js.size()));
    size_t gammas = 0;
    const Status s = query_.prepared().FirstMissingBatch(
        i_, candidates, js, &query_.input_schema(), base_facts, &missing_,
        &gammas);
    span.Arg("fallback", s.ok() ? 0 : 1);
    if (query_.semantics() == DatalogQuery::Semantics::kWellFounded) {
      span.Arg("gammas", static_cast<int64_t>(gammas));
    }
    if (!s.ok()) {
      if (MetricsEnabled()) {
        static Counter& fallbacks = MetricRegistry::Global().GetCounter(
            "calm.eval.union_batch_fallbacks");
        fallbacks.Increment();
      }
      UnionEvaluator::FirstRetractedBatch(candidates, js, base_facts, out);
      return;
    }
    out->clear();
    out->reserve(js.size());
    for (std::optional<Fact>& m : missing_) out->emplace_back(std::move(m));
  }

  size_t MaxBatch() const override { return PreparedProgram::kMaxUnionBatch; }

 private:
  const DatalogQuery& query_;
  const Instance& i_;
  std::vector<std::optional<Fact>> missing_;  // reused across batches
};

}  // namespace

Result<DatalogQuery> DatalogQuery::Create(Program program, std::string name,
                                          Semantics semantics,
                                          EvalOptions options) {
  DatalogQuery q;
  // Analyze, stratify (under kStratified), and compile exactly once; Eval
  // only runs the prepared form.
  Result<PreparedProgram> prepared =
      semantics == Semantics::kStratified
          ? PreparedProgram::Prepare(program, options)
          : PreparedProgram::PrepareFixedNegation(program, options);
  CALM_RETURN_IF_ERROR(prepared.status());
  q.prepared_ =
      std::make_shared<const PreparedProgram>(std::move(prepared).value());
  const ProgramInfo& info = q.prepared_->info();
  q.fragment_ = ClassifyFragment(program, info);
  CALM_ASSIGN_OR_RETURN(q.output_schema_, OutputSchema(program, info));
  if (q.output_schema_.empty()) {
    return InvalidArgumentError(
        "program has no output relations (mark one with .output or name it O)");
  }
  for (const RelationDecl& r : info.edb.relations()) {
    if (r.name == AdomRelation()) continue;
    CALM_RETURN_IF_ERROR(q.input_schema_.AddRelation(r));
  }
  q.program_ = std::move(program);
  q.name_ = name.empty() ? q.fragment_.FragmentName() : std::move(name);
  q.semantics_ = semantics;
  return q;
}

DatalogQuery DatalogQuery::FromTextOrDie(std::string_view text,
                                         std::string name, Semantics semantics,
                                         EvalOptions options) {
  Result<Program> program = Parse(text);
  if (!program.ok()) {
    std::fprintf(stderr, "FromTextOrDie parse error: %s\n",
                 program.status().ToString().c_str());
    std::abort();
  }
  Result<DatalogQuery> q = Create(std::move(program).value(), std::move(name),
                                  semantics, options);
  if (!q.ok()) {
    std::fprintf(stderr, "FromTextOrDie invalid program: %s\n",
                 q.status().ToString().c_str());
    std::abort();
  }
  return std::move(q).value();
}

Result<Instance> DatalogQuery::EvalSeeded(
    std::initializer_list<const Instance*> parts) const {
  if (semantics_ == Semantics::kStratified) {
    return prepared_->EvalParts(parts, &input_schema_, &output_schema_);
  }
  Database lo, hi;
  CALM_RETURN_IF_ERROR(
      RunAlternatingFixpoint(*prepared_, parts, &input_schema_, &lo, &hi));
  return lo.ToInstance(&output_schema_);
}

Result<Instance> DatalogQuery::Eval(const Instance& input) const {
  return EvalSeeded({&input});
}

Result<Instance> DatalogQuery::EvalUnion(const Instance& a,
                                         const Instance& b) const {
  return EvalSeeded({&a, &b});
}

void DatalogQuery::EvalBatch(const std::vector<const Instance*>& inputs,
                             std::vector<Result<Instance>>* out) const {
  out->clear();
  out->reserve(inputs.size());
  std::vector<const Instance*> chunk;
  std::vector<Instance> worlds;
  for (size_t start = 0; start < inputs.size();
       start += PreparedProgram::kMaxUnionBatch) {
    const size_t n =
        std::min(PreparedProgram::kMaxUnionBatch, inputs.size() - start);
    if (n < 2) {
      out->push_back(Eval(*inputs[start]));
      continue;
    }
    chunk.assign(inputs.begin() + start, inputs.begin() + start + n);
    TraceSpan span("datalog.eval_batch");
    span.Arg("worlds", static_cast<int64_t>(n));
    size_t gammas = 0;
    const Status s = prepared_->EvalBatch(chunk, &input_schema_,
                                          &output_schema_, &worlds, &gammas);
    span.Arg("fallback", s.ok() ? 0 : 1);
    if (semantics_ == Semantics::kWellFounded) {
      span.Arg("gammas", static_cast<int64_t>(gammas));
    }
    if (MetricsEnabled()) {
      static Counter& batches =
          MetricRegistry::Global().GetCounter("calm.eval.eval_batches");
      static Counter& fallbacks = MetricRegistry::Global().GetCounter(
          "calm.eval.eval_batch_fallbacks");
      batches.Increment();
      if (!s.ok()) fallbacks.Increment();
    }
    if (!s.ok()) {
      for (const Instance* input : chunk) out->push_back(Eval(*input));
      continue;
    }
    for (Instance& w : worlds) out->push_back(std::move(w));
  }
}

std::unique_ptr<UnionEvaluator> DatalogQuery::MakeUnionEvaluator(
    const Instance& i) const {
  return std::make_unique<ScratchUnionEvaluator>(*this, i);
}

}  // namespace calm::datalog
