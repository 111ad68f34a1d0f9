#pragma once

/// Zero-allocation tracing for the campaign stack.
///
/// Spans are recorded into per-thread fixed-capacity ring buffers of POD
/// records: a `const char*` static name/category, steady-clock start and
/// duration in nanoseconds, and one optional integer argument. Recording a
/// span performs no heap allocation and takes no lock (the only lock is a
/// one-time-per-thread buffer acquisition, amortized away by the first
/// span and warm-up friendly for tests/test_alloc.cpp). When a ring wraps,
/// the oldest spans are overwritten and counted in `dropped_spans()` — the
/// tracer never grows and never blocks the traced path.
///
/// Fork-worker merging: `serialize_and_clear()` produces a compact binary
/// payload a forked shard worker ships to its parent over the existing
/// framed pipe; `absorb()` strictly parses it (a malformed payload is
/// rejected whole and counted, never partially merged). CLOCK_MONOTONIC is
/// system-wide on Linux, so worker timestamps land on the parent timeline
/// with no offset bookkeeping.
///
/// Export is Chrome trace-event JSON (`render_chrome_trace()` /
/// `write_chrome_trace()`), loadable in Perfetto (ui.perfetto.dev) or
/// chrome://tracing. Parent spans appear as pid 0, each forked worker as
/// its own named process.
///
/// The tracer is disarmed by default and every instrumentation macro
/// checks one relaxed atomic before touching anything; configuring CMake
/// with -DRT_TRACING=OFF compiles the macros away entirely.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/clock.hpp"

#ifndef RT_OBS_TRACING
#define RT_OBS_TRACING 1
#endif

namespace rt::obs {

struct TraceConfig {
  /// Spans retained per thread; older spans are dropped on wrap.
  std::size_t buffer_capacity{1 << 14};
};

/// One completed span. `name`, `category` and `arg_name` must point to
/// storage that outlives the tracer — in practice string literals — which
/// is what keeps recording allocation-free.
struct SpanRecord {
  const char* name;
  const char* category;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint64_t arg;
  const char* arg_name;  ///< nullptr = no argument
};

/// A span absorbed from a serialized payload (typically a forked worker).
/// Strings are owned: the sender's pointers mean nothing here.
struct RemoteSpan {
  std::string name;
  std::string category;
  std::string arg_name;  ///< empty = no argument
  std::uint64_t start_ns{0};
  std::uint64_t dur_ns{0};
  std::uint64_t arg{0};
  std::uint32_t tid{0};
  std::uint64_t worker{0};  ///< pid lane in the exported trace
};

/// Appends `s` as the body of a JSON string literal: quotes, backslashes
/// and every control character are escaped. The one JSON escaper of the
/// stack (trace export, bench records, server logs).
void append_json_escaped(std::string& out, const char* s);

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer every span macro records into.
  static Tracer& global();

  void arm(TraceConfig config = {});
  void disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Arms iff the environment variable (default RT_TRACE) is set non-empty;
  /// its value is remembered as the requested output path (`env_path()`).
  bool arm_from_env(const char* var = "RT_TRACE");
  const std::string& env_path() const { return env_path_; }

  static std::uint64_t now_ns() { return MonotonicClock::now_ns(); }

  /// Record a completed span. No-op when disarmed. Zero-allocation after
  /// the calling thread's first span. All pointer arguments must be
  /// string literals (or otherwise outlive the tracer).
  void record(const char* name, const char* category, std::uint64_t start_ns,
              std::uint64_t dur_ns, std::uint64_t arg = 0,
              const char* arg_name = nullptr);

  /// Spans currently held (local rings + absorbed), oldest-dropped
  /// excluded.
  std::size_t span_count() const;
  /// Spans lost to ring wrap-around, locally and in absorbed payloads.
  std::uint64_t dropped_spans() const;
  /// Payloads absorb() rejected as malformed.
  std::uint64_t absorb_failures() const {
    return absorb_failures_.load(std::memory_order_relaxed);
  }

  /// Drain local spans into a self-describing binary payload (and reset
  /// the local rings). The inverse of absorb(); used by forked shard
  /// workers to ship their buffers to the parent.
  std::string serialize_and_clear();

  /// Strictly parse a serialize_and_clear() payload and merge its spans,
  /// tagged with `worker` for the exported pid lane. Returns false (and
  /// counts an absorb failure) on any malformation; a bad payload is
  /// never partially merged.
  bool absorb(const std::string& payload, std::uint64_t worker);

  /// Chrome trace-event JSON of everything held (local + absorbed).
  std::string render_chrome_trace() const;
  bool write_chrome_trace(const std::string& path) const;

  /// Reset all spans, drop counters, and absorb state. Also the first
  /// thing a forked worker does: fork duplicates the parent's buffers,
  /// and the worker must not re-ship the parent's pre-fork spans.
  void clear();

  /// Collect local spans in export order (per-thread rings, oldest first).
  /// Snapshot/export calls assume recording threads are quiescent, which
  /// holds at every call site (end of grid / end of request / test body).
  std::vector<std::pair<std::uint32_t, SpanRecord>> collect_local() const;
  const std::vector<RemoteSpan>& remote_spans() const { return remote_; }

 private:
  struct ThreadBuffer {
    std::vector<SpanRecord> ring;  ///< sized once at acquisition
    std::size_t head{0};           ///< next write slot = total % capacity
    std::uint64_t total{0};        ///< spans ever pushed
    std::uint32_t tid{0};          ///< small stable id for the export
    std::atomic<bool> in_use{true};
  };

  ThreadBuffer* local_buffer();

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> absorb_failures_{0};
  std::size_t capacity_{1 << 14};
  std::string env_path_;

  mutable std::mutex mutex_;  ///< guards buffers_/remote_ structure
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::vector<RemoteSpan> remote_;
  std::uint64_t remote_dropped_{0};
};

#if RT_OBS_TRACING

/// RAII span against the global tracer. Captures the start timestamp only
/// when the tracer is armed; the destructor records. Never allocates.
class Span {
 public:
  explicit Span(const char* name, const char* category = "rt",
                std::uint64_t arg = 0, const char* arg_name = nullptr)
      : name_(name), category_(category), arg_(arg), arg_name_(arg_name) {
    if (Tracer::global().armed()) start_ns_ = Tracer::now_ns();
  }
  ~Span() {
    if (start_ns_ != 0) {
      Tracer::global().record(name_, category_, start_ns_,
                              Tracer::now_ns() - start_ns_, arg_, arg_name_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* category_;
  std::uint64_t arg_;
  const char* arg_name_;
  std::uint64_t start_ns_{0};
};

/// Record a span whose endpoints were measured manually (e.g. a queue-wait
/// interval whose start lived on another thread).
inline void record_span(const char* name, const char* category,
                        std::uint64_t start_ns, std::uint64_t end_ns,
                        std::uint64_t arg = 0,
                        const char* arg_name = nullptr) {
  Tracer& t = Tracer::global();
  if (t.armed() && end_ns >= start_ns) {
    t.record(name, category, start_ns, end_ns - start_ns, arg, arg_name);
  }
}

#define RT_OBS_CONCAT_INNER(a, b) a##b
#define RT_OBS_CONCAT(a, b) RT_OBS_CONCAT_INNER(a, b)
/// RT_TRACE_SPAN("name"[, "category"[, arg, "arg_name"]]): RAII span for
/// the enclosing scope.
#define RT_TRACE_SPAN(...)                                \
  ::rt::obs::Span RT_OBS_CONCAT(rt_obs_span_, __LINE__) { \
    __VA_ARGS__                                           \
  }

#else  // !RT_OBS_TRACING — tracing compiled out: spans cost nothing.

class Span {
 public:
  explicit Span(const char*, const char* = "rt", std::uint64_t = 0,
                const char* = nullptr) {}
};

inline void record_span(const char*, const char*, std::uint64_t,
                        std::uint64_t, std::uint64_t = 0,
                        const char* = nullptr) {}

#define RT_TRACE_SPAN(...) \
  do {                     \
  } while (false)

#endif  // RT_OBS_TRACING

}  // namespace rt::obs
