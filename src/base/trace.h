#ifndef CALM_BASE_TRACE_H_
#define CALM_BASE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "base/json.h"
#include "base/status.h"

// ---------------------------------------------------------------------------
// Span tracing (see DESIGN.md, "Observability"): RAII scopes recorded into
// thread-local buffers with deterministic ids, exported as Chrome
// trace_event JSON (chrome://tracing / Perfetto loads the file directly).
//
// Cost model, in increasing order of spend:
//   * off      — the default. Each span site costs one relaxed atomic load
//                and a branch (measured <3% on the hottest sweep benches;
//                see DESIGN.md).
//   * enabled  — appends one fixed-size event record per span to a
//                thread-local vector; no locks, no I/O until export.
//
// Determinism: a span's id is (thread slot << 32) | per-thread sequence, and
// events are appended in open order, so two runs of the same single-threaded
// code produce identical ids, parents, and nesting depths — timestamps are
// the only nondeterministic field. Instrumentation only observes: enabling
// tracing cannot change any engine verdict (pinned by tests/trace_test.cc).
// ---------------------------------------------------------------------------

namespace calm {

// One integer-valued span/instant argument. Keys must be string literals
// (the buffer stores the pointer, not a copy).
struct TraceArg {
  const char* key;
  int64_t value;
};

namespace trace_internal {

inline constexpr size_t kMaxArgs = 6;
inline constexpr uint32_t kInvalidIndex = UINT32_MAX;

struct Event {
  const char* name = nullptr;
  bool instant = false;
  uint32_t depth = 0;
  uint64_t id = 0;      // (thread slot << 32) | per-thread sequence
  uint64_t parent = 0;  // enclosing span id, 0 at top level
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint32_t num_args = 0;
  TraceArg args[kMaxArgs];
};

extern std::atomic<bool> g_enabled;

// Spans are addressed by index into the calling thread's buffer (the buffer
// vector reallocates as children append, so pointers would dangle).
uint32_t OpenSpan(const char* name);  // kInvalidIndex when the buffer is full
void CloseSpan(uint32_t index);
void SpanArg(uint32_t index, const char* key, int64_t value);
void AppendInstant(const char* name, std::initializer_list<TraceArg> args);

}  // namespace trace_internal

inline bool TracingEnabled() {
  return trace_internal::g_enabled.load(std::memory_order_relaxed);
}

// Global control and export surface for the trace buffers.
class Trace {
 public:
  static void SetEnabled(bool enabled);

  // Clears every thread's buffer, restarts sequences, and re-stamps the
  // timestamp epoch. Call at a quiescent point (no spans open).
  static void Reset();

  // Per-thread buffers are capped (default 1<<20 events each); events past
  // the cap are dropped newest-first so recorded parents stay consistent.
  static void SetCapacity(size_t max_events_per_thread);
  static size_t DroppedCount();

  // Total recorded events across all threads.
  static size_t EventCount();
  // Recorded complete spans with this name (tests and bench cross-checks).
  static size_t SpanCount(const std::string& name);
  // Recorded instant events with this name (fault-event cross-checks).
  static size_t InstantCount(const std::string& name);

  // The Chrome trace_event document: {"traceEvents": [...]} with one "X"
  // (complete) event per span and one "i" (instant) event per instant,
  // timestamps in microseconds. Deterministic order: by thread slot, then
  // record order.
  static Json ExportJson();
  static Status WriteChromeTrace(const std::string& path);

  // An instant event on the calling thread (fault injections, cache events).
  static void Instant(const char* name,
                      std::initializer_list<TraceArg> args = {}) {
    if (!TracingEnabled()) return;
    trace_internal::AppendInstant(name, args);
  }
};

// RAII span: records an event on construction (when tracing is enabled) and
// stamps its duration on destruction. Args attach to the open span.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TracingEnabled()) index_ = trace_internal::OpenSpan(name);
  }
  TraceSpan(const char* name, std::initializer_list<TraceArg> args)
      : TraceSpan(name) {
    for (const TraceArg& a : args) Arg(a.key, a.value);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (index_ != trace_internal::kInvalidIndex) {
      trace_internal::CloseSpan(index_);
    }
  }

  // Attaches key=value to the span (up to kMaxArgs; extras are dropped).
  void Arg(const char* key, int64_t value) {
    if (index_ != trace_internal::kInvalidIndex) {
      trace_internal::SpanArg(index_, key, value);
    }
  }

  bool active() const { return index_ != trace_internal::kInvalidIndex; }

 private:
  uint32_t index_ = trace_internal::kInvalidIndex;
};

}  // namespace calm

#endif  // CALM_BASE_TRACE_H_
