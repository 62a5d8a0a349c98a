#include "core/telemetry/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "core/telemetry/telemetry.hpp"

namespace pyblaz::telemetry {

namespace internal {

std::atomic<bool> g_trace_enabled{false};

/// One recorded begin or end.  Only the name *pointer* is stored (span names
/// are string literals), so recording never allocates except when the buffer
/// vector grows.
struct TraceEvent {
  const char* name;
  std::uint64_t ts_ns;
  std::uint64_t arg;
  bool begin;
  bool has_arg;
};

/// Per-thread event buffer.  The owning thread appends under the buffer
/// mutex (uncontended except during a flush) so a concurrent flush_trace()
/// can safely drain buffers of threads that are still running.  Buffers are
/// owned by the global state and outlive their threads, so events recorded
/// by a thread that has since exited still reach the flush.
struct TraceBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

}  // namespace internal

namespace {

using internal::SinkKind;
using internal::SinkPolicy;
using internal::TraceBuffer;
using internal::TraceEvent;

/// Cap on buffered events per thread: a runaway trace degrades to counting
/// drops instead of eating the heap.  End events of already-begun spans are
/// exempt so begin/end stay balanced.
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 20;

struct TraceState {
  std::mutex mutex;  // Guards buffers, sink, and atexit registration.
  std::vector<std::unique_ptr<TraceBuffer>> buffers;
  SinkPolicy sink;
  bool atexit_registered = false;
  std::atomic<std::uint64_t> dropped{0};
  const std::chrono::steady_clock::time_point base =
      std::chrono::steady_clock::now();
};

// Leaked so spans recorded during static destruction (after main) still have
// somewhere to go; the atexit flush below runs before C++ runtime teardown.
TraceState& state() {
  static TraceState* s = new TraceState;
  return *s;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - state().base)
          .count());
}

thread_local TraceBuffer* t_buffer = nullptr;

TraceBuffer& this_thread_buffer() {
  if (t_buffer == nullptr) {
    TraceState& s = state();
    auto owned = std::make_unique<TraceBuffer>();
    owned->events.reserve(4096);
    t_buffer = owned.get();
    std::lock_guard<std::mutex> lock(s.mutex);
    owned->tid = static_cast<std::uint32_t>(s.buffers.size() + 1);
    s.buffers.push_back(std::move(owned));
  }
  return *t_buffer;
}

void flush_at_exit() { flush_trace(); }

/// Enable recording toward @p sink.  Called with state().mutex held.
void enable_locked(TraceState& s, SinkPolicy sink) {
  s.sink = std::move(sink);
  if (!s.atexit_registered) {
    s.atexit_registered = true;
    std::atexit(&flush_at_exit);
  }
  internal::g_trace_enabled.store(true, std::memory_order_relaxed);
}

/// CC_TRACE resolved once at static init, like CC_STATS: a bad (empty) value
/// warns and leaves tracing off rather than guessing a path.
struct TraceEnvInit {
  TraceEnvInit() {
    const SinkPolicy policy =
        internal::parse_sink_env(std::getenv("CC_TRACE"));
    if (policy.bad) {
      std::fprintf(stderr,
                   "pyblaz: CC_TRACE is set but empty (want a file path or "
                   "stderr); tracing disabled\n");
      return;
    }
    if (policy.kind == SinkKind::kDisabled) return;
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    enable_locked(s, policy);
  }
};

TraceEnvInit g_trace_env_init;

void append_json_escaped(std::string& out, const char* text) {
  for (; *text; ++text) {
    if (*text == '"' || *text == '\\') out.push_back('\\');
    out.push_back(*text);
  }
}

void append_event(std::string& out, const TraceEvent& event,
                  std::uint32_t tid) {
  char buffer[96];
  out += "{\"name\": \"";
  append_json_escaped(out, event.name);
  // Chrome trace-event timestamps are microseconds; three decimals keep the
  // recorded nanosecond resolution.
  std::snprintf(buffer, sizeof(buffer),
                "\", \"cat\": \"pyblaz\", \"ph\": \"%c\", \"pid\": 1, "
                "\"tid\": %u, \"ts\": %.3f",
                event.begin ? 'B' : 'E', tid,
                static_cast<double>(event.ts_ns) / 1e3);
  out += buffer;
  if (event.begin && event.has_arg) {
    std::snprintf(buffer, sizeof(buffer), ", \"args\": {\"v\": %llu}",
                  static_cast<unsigned long long>(event.arg));
    out += buffer;
  }
  out += "}";
}

}  // namespace

namespace internal {

TraceBuffer* begin_span(const char* name, std::uint64_t arg, bool has_arg) {
  TraceBuffer& buffer = this_thread_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() >= kMaxEventsPerThread) {
    state().dropped.fetch_add(1, std::memory_order_relaxed);
    return nullptr;  // The span's end is suppressed too: balance holds.
  }
  buffer.events.push_back({name, now_ns(), arg, true, has_arg});
  return &buffer;
}

void end_span(TraceBuffer* buffer, const char* name) {
  // Never dropped (even just past the cap): only begun spans reach here, and
  // suppressing the end would unbalance the stream.
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->events.push_back({name, now_ns(), 0, false, false});
}

}  // namespace internal

void set_trace_sink(const std::string& path) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (path.empty()) {
    internal::g_trace_enabled.store(false, std::memory_order_relaxed);
    s.sink = SinkPolicy{};
    for (auto& buffer : s.buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      buffer->events.clear();
    }
    return;
  }
  SinkPolicy sink;
  if (path == "stderr") {
    sink.kind = SinkKind::kStderr;
  } else {
    sink.kind = SinkKind::kFile;
    sink.path = path;
  }
  enable_locked(s, std::move(sink));
}

std::size_t flush_trace() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.sink.kind == SinkKind::kDisabled) return 0;

  std::string out = "{\n\"traceEvents\": [";
  std::size_t written = 0;
  for (auto& buffer : s.buffers) {
    std::vector<TraceEvent> events;
    {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      events.swap(buffer->events);
    }
    for (const TraceEvent& event : events) {
      out += written ? ",\n" : "\n";
      append_event(out, event, buffer->tid);
      ++written;
    }
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
         "{\"dropped_events\": " +
         std::to_string(s.dropped.load(std::memory_order_relaxed)) + "}\n}\n";
  internal::write_to_sink(s.sink, out, "CC_TRACE");
  return written;
}

std::uint64_t trace_dropped_events() {
  return state().dropped.load(std::memory_order_relaxed);
}

}  // namespace pyblaz::telemetry
