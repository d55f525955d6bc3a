#include "base/trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace calm {

namespace trace_internal {

std::atomic<bool> g_enabled{false};

namespace {

std::atomic<size_t> g_capacity{size_t{1} << 20};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The timestamp epoch: exported ts values are relative to the last Reset
// (or process start), keeping them small and diffable.
std::atomic<int64_t> g_epoch_ns{NowNs()};

}  // namespace

// A thread's event buffer. Buffers are owned jointly by the writing thread
// (thread_local shared_ptr) and the global registry, so export works after
// worker threads have exited. The writing thread is the only mutator of
// `events` / `open_stack`; Reset and export must run at quiescent points
// (no spans being recorded), which Trace's contract requires.
struct ThreadBuffer {
  uint32_t slot = 0;  // registration order; the exported tid
  uint32_t next_seq = 1;
  std::vector<Event> events;
  std::vector<uint32_t> open_stack;  // indices into events
  size_t dropped = 0;
};

namespace {

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    b->slot = static_cast<uint32_t>(registry.buffers.size());
    registry.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

uint32_t OpenSpan(const char* name) {
  ThreadBuffer& buffer = LocalBuffer();
  if (buffer.events.size() >= g_capacity.load(std::memory_order_relaxed)) {
    ++buffer.dropped;
    return kInvalidIndex;
  }
  Event event;
  event.name = name;
  event.depth = static_cast<uint32_t>(buffer.open_stack.size());
  event.id = (uint64_t{buffer.slot} << 32) | buffer.next_seq++;
  event.parent = buffer.open_stack.empty()
                     ? 0
                     : buffer.events[buffer.open_stack.back()].id;
  event.start_ns = NowNs() - g_epoch_ns.load(std::memory_order_relaxed);
  uint32_t index = static_cast<uint32_t>(buffer.events.size());
  buffer.open_stack.push_back(index);
  buffer.events.push_back(event);
  return index;
}

void CloseSpan(uint32_t index) {
  ThreadBuffer& buffer = LocalBuffer();
  if (index >= buffer.events.size()) return;  // Reset raced an open span
  Event& event = buffer.events[index];
  event.dur_ns =
      NowNs() - g_epoch_ns.load(std::memory_order_relaxed) - event.start_ns;
  // Spans close in strict LIFO order per thread (RAII guarantees it).
  if (!buffer.open_stack.empty() && buffer.open_stack.back() == index) {
    buffer.open_stack.pop_back();
  }
}

void SpanArg(uint32_t index, const char* key, int64_t value) {
  ThreadBuffer& buffer = LocalBuffer();
  if (index >= buffer.events.size()) return;  // Reset raced an open span
  Event& event = buffer.events[index];
  if (event.num_args < kMaxArgs) {
    event.args[event.num_args++] = TraceArg{key, value};
  }
}

void AppendInstant(const char* name, std::initializer_list<TraceArg> args) {
  ThreadBuffer& buffer = LocalBuffer();
  if (buffer.events.size() >= g_capacity.load(std::memory_order_relaxed)) {
    ++buffer.dropped;
    return;
  }
  Event event;
  event.name = name;
  event.instant = true;
  event.depth = static_cast<uint32_t>(buffer.open_stack.size());
  event.id = (uint64_t{buffer.slot} << 32) | buffer.next_seq++;
  event.parent = buffer.open_stack.empty()
                     ? 0
                     : buffer.events[buffer.open_stack.back()].id;
  event.start_ns = NowNs() - g_epoch_ns.load(std::memory_order_relaxed);
  for (const TraceArg& a : args) {
    if (event.num_args < kMaxArgs) event.args[event.num_args++] = a;
  }
  buffer.events.push_back(event);
}

}  // namespace trace_internal

void Trace::SetEnabled(bool enabled) {
  trace_internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

void Trace::SetCapacity(size_t max_events_per_thread) {
  trace_internal::g_capacity.store(max_events_per_thread,
                                   std::memory_order_relaxed);
}

void Trace::Reset() {
  trace_internal::Registry& registry = trace_internal::GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto& buffer : registry.buffers) {
    buffer->events.clear();
    buffer->open_stack.clear();
    buffer->next_seq = 1;
    buffer->dropped = 0;
  }
  trace_internal::g_epoch_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
}

size_t Trace::DroppedCount() {
  trace_internal::Registry& registry = trace_internal::GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  size_t total = 0;
  for (const auto& buffer : registry.buffers) total += buffer->dropped;
  return total;
}

size_t Trace::EventCount() {
  trace_internal::Registry& registry = trace_internal::GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  size_t total = 0;
  for (const auto& buffer : registry.buffers) total += buffer->events.size();
  return total;
}

size_t Trace::SpanCount(const std::string& name) {
  trace_internal::Registry& registry = trace_internal::GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  size_t total = 0;
  for (const auto& buffer : registry.buffers) {
    for (const trace_internal::Event& e : buffer->events) {
      if (!e.instant && name == e.name) ++total;
    }
  }
  return total;
}

size_t Trace::InstantCount(const std::string& name) {
  trace_internal::Registry& registry = trace_internal::GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  size_t total = 0;
  for (const auto& buffer : registry.buffers) {
    for (const trace_internal::Event& e : buffer->events) {
      if (e.instant && name == e.name) ++total;
    }
  }
  return total;
}

Json Trace::ExportJson() {
  trace_internal::Registry& registry = trace_internal::GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);

  Json events = Json::Array();
  for (const auto& buffer : registry.buffers) {
    for (const trace_internal::Event& e : buffer->events) {
      Json event = Json::Object();
      event.Set("name", Json::Str(e.name));
      event.Set("ph", Json::Str(e.instant ? "i" : "X"));
      event.Set("pid", Json::Int(0));
      event.Set("tid", Json::Int(buffer->slot));
      // Chrome expects microseconds; keep sub-µs precision as a double.
      event.Set("ts", Json::Double(static_cast<double>(e.start_ns) / 1000.0));
      if (e.instant) {
        event.Set("s", Json::Str("t"));  // thread-scoped instant
      } else {
        event.Set("dur", Json::Double(static_cast<double>(e.dur_ns) / 1000.0));
      }
      Json args = Json::Object();
      args.Set("id", Json::Uint(e.id));
      if (e.parent != 0) args.Set("parent", Json::Uint(e.parent));
      for (uint32_t a = 0; a < e.num_args; ++a) {
        args.Set(e.args[a].key, Json::Int(e.args[a].value));
      }
      event.Set("args", std::move(args));
      events.Append(std::move(event));
    }
  }

  Json root = Json::Object();
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", Json::Str("ms"));
  return root;
}

Status Trace::WriteChromeTrace(const std::string& path) {
  std::string text = ExportJson().Dump(/*indent=*/-1);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InvalidArgumentError("cannot write trace to " + path);
  }
  // A short write, or a buffered one that only fails at fclose (a full
  // disk), leaves a truncated document: report it, never success.
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fputc('\n', f) != EOF;
  if (std::fclose(f) != 0 || !written) {
    return InternalError("writing trace to " + path + " failed");
  }
  return Status::Ok();
}

}  // namespace calm
