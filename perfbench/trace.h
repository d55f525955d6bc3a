#ifndef CALM_PERFBENCH_TRACE_H_
#define CALM_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/query.h"
#include "base/status.h"

// Spans and forwarding wrappers for the benchmark's traced pass. Everything
// here sits outside the system under test: spans are opened around calls to
// its public functions, and the wrappers forward every Query/UnionEvaluator
// call to the real object while timing it. Traced passes run single-threaded
// (checker threads 1), so a span's wrapper time never overlaps another's.

namespace calm::perfbench {

// Monotonic clock in nanoseconds.
int64_t NowNs();

struct Span {
  std::string_view name;  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into Tracer::spans(), -1 for a root
  uint32_t item = 0;    // the benchmark item this span belongs to
  // Time spent in the forwarding wrappers while this span was innermost.
  int64_t fixpoint_ns = 0;
  uint64_t fixpoints = 0;
  int64_t union_ns = 0;
  uint64_t union_checks = 0;
};

class Tracer {
 public:
  Tracer() : owner_(std::this_thread::get_id()) {}

  int32_t Begin(std::string_view name, uint32_t item);
  void End(int32_t id);
  void AddFixpoint(int64_t ns);
  void AddUnionCheck(int64_t ns);

  const std::vector<Span>& spans() const { return spans_; }
  // Wrapper calls made outside any span or off the tracing thread; their
  // time is unattributed, so a traced pass requires this to stay 0.
  uint64_t unattributed_calls() const { return unattributed_.load(); }

  // One JSON object per line: name, start/end (ns), parent, item.
  Status WriteJsonLines(const std::string& path) const;

 private:
  bool Attributable() const;

  std::thread::id owner_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::atomic<uint64_t> unattributed_{0};
};

// Opens a span for its lifetime; a null tracer makes it a no-op, so traced
// and untraced passes share one code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, uint32_t item)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, item) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// Forwards every call to `inner`, timing evaluations as fixpoints and the
// evaluators it hands out as union checks. Building a union evaluator
// evaluates Q(i), so it counts as a fixpoint. `inner` and `tracer` must
// outlive the wrapper.
class TimedQuery : public Query {
 public:
  TimedQuery(const Query& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  const Schema& input_schema() const override { return inner_.input_schema(); }
  const Schema& output_schema() const override {
    return inner_.output_schema();
  }
  std::string name() const override { return inner_.name(); }
  Result<Instance> Eval(const Instance& input) const override;
  Result<Instance> EvalUnion(const Instance& a,
                             const Instance& b) const override;
  Status EvalFacts(const Instance& input,
                   std::vector<Fact>* out) const override;
  std::unique_ptr<UnionEvaluator> MakeUnionEvaluator(
      const Instance& i) const override;

 private:
  const Query& inner_;
  Tracer* tracer_;
};

// Self time per layer over a traced pass, in milliseconds, keyed by span
// name, plus the rows "datalog.fixpoint" and "datalog.union_check" for the
// wrapper time. The rows partition the root spans' total duration.
struct LayerTable {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> total_ms;  // inclusive, per span name
  uint64_t fixpoints = 0;
  uint64_t union_checks = 0;
};
LayerTable BuildLayerTable(const Tracer& tracer);

}  // namespace calm::perfbench

#endif  // CALM_PERFBENCH_TRACE_H_
