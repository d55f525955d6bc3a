#include "trace.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace calm::perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Begin(std::string_view name, uint32_t item) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.item = item;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int32_t id) {
  spans_[id].end_ns = NowNs();
  open_.pop_back();
}

bool Tracer::Attributable() const {
  return !open_.empty() && std::this_thread::get_id() == owner_;
}

void Tracer::AddFixpoint(int64_t ns) {
  if (!Attributable()) {
    unattributed_.fetch_add(1);
    return;
  }
  Span& span = spans_[open_.back()];
  span.fixpoint_ns += ns;
  ++span.fixpoints;
}

void Tracer::AddUnionCheck(int64_t ns) {
  if (!Attributable()) {
    unattributed_.fetch_add(1);
    return;
  }
  Span& span = spans_[open_.back()];
  span.union_ns += ns;
  ++span.union_checks;
}

Status Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return InternalError("cannot write " + path);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%.*s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"item\": %u, \"fixpoints\": %llu, "
                 "\"fixpoint_ns\": %lld, \"union_checks\": %llu, "
                 "\"union_ns\": %lld}\n",
                 static_cast<int>(s.name.size()), s.name.data(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.item,
                 static_cast<unsigned long long>(s.fixpoints),
                 static_cast<long long>(s.fixpoint_ns),
                 static_cast<unsigned long long>(s.union_checks),
                 static_cast<long long>(s.union_ns));
  }
  return std::fclose(f) == 0 ? Status::Ok()
                             : InternalError("cannot write " + path);
}

namespace {

class TimedUnionEvaluator : public UnionEvaluator {
 public:
  TimedUnionEvaluator(std::unique_ptr<UnionEvaluator> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  Result<std::optional<Fact>> FirstRetracted(
      const Instance& j, const std::vector<Fact>& base_facts) override {
    int64_t t0 = NowNs();
    Result<std::optional<Fact>> r = inner_->FirstRetracted(j, base_facts);
    tracer_->AddUnionCheck(NowNs() - t0);
    return r;
  }

 private:
  std::unique_ptr<UnionEvaluator> inner_;
  Tracer* tracer_;
};

}  // namespace

Result<Instance> TimedQuery::Eval(const Instance& input) const {
  int64_t t0 = NowNs();
  Result<Instance> r = inner_.Eval(input);
  tracer_->AddFixpoint(NowNs() - t0);
  return r;
}

Result<Instance> TimedQuery::EvalUnion(const Instance& a,
                                       const Instance& b) const {
  int64_t t0 = NowNs();
  Result<Instance> r = inner_.EvalUnion(a, b);
  tracer_->AddFixpoint(NowNs() - t0);
  return r;
}

Status TimedQuery::EvalFacts(const Instance& input,
                             std::vector<Fact>* out) const {
  int64_t t0 = NowNs();
  Status s = inner_.EvalFacts(input, out);
  tracer_->AddFixpoint(NowNs() - t0);
  return s;
}

std::unique_ptr<UnionEvaluator> TimedQuery::MakeUnionEvaluator(
    const Instance& i) const {
  int64_t t0 = NowNs();
  std::unique_ptr<UnionEvaluator> inner = inner_.MakeUnionEvaluator(i);
  tracer_->AddFixpoint(NowNs() - t0);
  return std::make_unique<TimedUnionEvaluator>(std::move(inner), tracer_);
}

LayerTable BuildLayerTable(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  LayerTable table;
  for (size_t n = 0; n < spans.size(); ++n) {
    const Span& s = spans[n];
    const int64_t duration = s.end_ns - s.start_ns;
    const std::string name(s.name);
    table.self_ms[name] +=
        (duration - child_ns[n] - s.fixpoint_ns - s.union_ns) / 1e6;
    table.total_ms[name] += duration / 1e6;
    table.self_ms["datalog.fixpoint"] += s.fixpoint_ns / 1e6;
    table.self_ms["datalog.union_check"] += s.union_ns / 1e6;
    table.fixpoints += s.fixpoints;
    table.union_checks += s.union_checks;
  }
  return table;
}

}  // namespace calm::perfbench
