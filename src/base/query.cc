#include "base/query.h"

#include <algorithm>
#include <map>
#include <vector>

#include "base/enumerator.h"

namespace calm {

namespace {

// The default union evaluator: i ∪ j is maintained as an overlay on a
// persistent copy of i — j's facts are inserted before the evaluation and
// erased after, so no per-pair Instance::Union copy is ever made.
class OverlayUnionEvaluator : public UnionEvaluator {
 public:
  OverlayUnionEvaluator(const Query& query, const Instance& i)
      : query_(query), union_(i) {}

  Result<std::optional<Fact>> FirstRetracted(
      const Instance& j, const std::vector<Fact>& base_facts) override {
    overlay_.clear();
    j.ForEachFact([&](uint32_t name, const Tuple& t) {
      Fact f(name, t);
      if (union_.Insert(f)) overlay_.push_back(std::move(f));
    });
    out_.clear();
    Status s = query_.EvalFacts(union_, &out_);
    for (const Fact& f : overlay_) union_.Erase(f);
    if (!s.ok()) return s;

    // Both fact streams are ascending, so a single merge pass finds the
    // first base fact missing from Q(i ∪ j).
    auto it = out_.begin();
    for (const Fact& f : base_facts) {
      while (it != out_.end() && *it < f) ++it;
      if (it == out_.end() || !(*it == f)) return std::optional<Fact>(f);
    }
    return std::optional<Fact>();
  }

 private:
  const Query& query_;
  Instance union_;             // == i between calls
  std::vector<Fact> overlay_;  // j's facts newly added to union_
  std::vector<Fact> out_;      // Q(i ∪ j), reused across calls
};

}  // namespace

void UnionEvaluator::FirstRetractedBatch(
    const std::vector<Fact>& candidates, const FactSubsets& js,
    const std::vector<Fact>& base_facts,
    std::vector<Result<std::optional<Fact>>>* out) {
  out->clear();
  out->reserve(js.size());
  SubsetInstance j(candidates);
  for (size_t k = 0; k < js.size(); ++k) {
    out->push_back(FirstRetracted(j.Set(js[k]), base_facts));
  }
}

void Query::EvalBatch(const std::vector<const Instance*>& inputs,
                      std::vector<Result<Instance>>* out) const {
  out->clear();
  out->reserve(inputs.size());
  for (const Instance* input : inputs) out->push_back(Eval(*input));
}

std::unique_ptr<UnionEvaluator> MakeOverlayUnionEvaluator(const Query& query,
                                                          const Instance& i) {
  return std::make_unique<OverlayUnionEvaluator>(query, i);
}

std::unique_ptr<UnionEvaluator> Query::MakeUnionEvaluator(
    const Instance& i) const {
  return MakeOverlayUnionEvaluator(*this, i);
}

namespace {

// CheckGenericity past its evaluations: `direct` is Q(input) and
// `permuted` is Q(pi(input)).
Status CheckPermuted(const Query& query, const Instance& input,
                     const Instance& direct, const std::map<Value, Value>& pi,
                     const Result<Instance>& permuted) {
  if (!permuted.ok()) return permuted.status();
  Instance expected = ApplyValueMap(direct, pi);
  if (expected != permuted.value()) {
    return InternalError("genericity violated for query '" + query.name() +
                         "' on input " + input.ToString() + ": Q(pi(I)) = " +
                         permuted.value().ToString() + " but pi(Q(I)) = " +
                         expected.ToString());
  }
  return Status::Ok();
}

}  // namespace

Status CheckGenericity(const Query& query, const Instance& input,
                       const std::map<Value, Value>& pi) {
  Result<Instance> direct = query.Eval(input);
  if (!direct.ok()) return direct.status();
  return CheckPermuted(query, input, direct.value(), pi,
                       query.Eval(ApplyValueMap(input, pi)));
}

Status ProbeGenericity(const Query& query, size_t domain_size,
                       size_t max_facts, size_t samples) {
  std::vector<Value> domain = IntDomain(domain_size);

  // A fixed family of permutations of {0..n-1}, extended with the identity
  // elsewhere. The two shifts move the probed values out of the small-int
  // range entirely — one far away, one onto the checkers' fresh-value range
  // {1000..} that the reduced J-sweeps permute — so value-specific behavior
  // anywhere the sweeps touch is exercised, not just relabelings within
  // {0..n-1}.
  std::vector<std::map<Value, Value>> perms;
  {
    std::map<Value, Value> shift_high, shift_fresh, reverse, swap01;
    for (size_t i = 0; i < domain_size; ++i) {
      shift_high[domain[i]] = Value::FromInt((uint64_t{1} << 20) + i);
      shift_fresh[domain[i]] = Value::FromInt(1000 + i);
      reverse[domain[i]] = domain[domain_size - 1 - i];
    }
    perms.push_back(std::move(shift_high));
    perms.push_back(std::move(shift_fresh));
    if (domain_size >= 2) {
      perms.push_back(std::move(reverse));
      swap01[domain[0]] = domain[1];
      swap01[domain[1]] = domain[0];
      perms.push_back(std::move(swap01));
    }
  }

  std::vector<Instance> space =
      AllInstances(query.input_schema(), domain, max_facts);
  if (space.empty() || samples == 0) return Status::Ok();
  size_t take = std::min(samples, space.size());
  size_t stride = space.size() / take;
  // Every sample and its permuted images go to the query in one batch:
  // inputs[s * (1 + |perms|)] is sample s, its images follow. The replay
  // walks them in CheckGenericity's order, so it returns the statuses and
  // messages CheckGenericity per (sample, permutation) would.
  const size_t per_sample = 1 + perms.size();
  std::vector<Instance> images;
  images.reserve(take * perms.size());
  std::vector<const Instance*> inputs;
  inputs.reserve(take * per_sample);
  for (size_t s = 0; s < take; ++s) {
    const Instance& probe = space[s * stride];
    inputs.push_back(&probe);
    for (const std::map<Value, Value>& pi : perms) {
      images.push_back(ApplyValueMap(probe, pi));
      inputs.push_back(&images.back());
    }
  }
  std::vector<Result<Instance>> outs;
  query.EvalBatch(inputs, &outs);
  for (size_t s = 0; s < take; ++s) {
    const Result<Instance>& direct = outs[s * per_sample];
    if (!direct.ok()) return direct.status();
    for (size_t p = 0; p < perms.size(); ++p) {
      Status st = CheckPermuted(query, space[s * stride], direct.value(),
                                perms[p], outs[s * per_sample + 1 + p]);
      if (!st.ok()) return st;
    }
  }
  return Status::Ok();
}

SymmetryMode ResolveSymmetry(const Query& query, SymmetryMode mode,
                             size_t domain_size, size_t max_facts) {
  if (mode != SymmetryMode::kAuto) return mode;
  return ProbeGenericity(query, domain_size, std::min<size_t>(max_facts, 2))
                 .ok()
             ? SymmetryMode::kForceOn
             : SymmetryMode::kOff;
}

}  // namespace calm
