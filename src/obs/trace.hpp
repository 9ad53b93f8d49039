// Span tracing: nested, cross-thread stage timings for the pipeline.
//
// A ScopedSpan brackets one stage (ingest, profiles, filter, placement,
// gmm, ...): construction stamps the start and pushes the span as the
// thread's *current* span; destruction stamps the end and records a
// SpanRecord into a TraceBuffer sink.  Parent/child nesting follows a
// thread-local current-span id, and core::ThreadPool propagates the
// submitting thread's current span into its workers, so chunk spans
// created inside a parallel region parent correctly for any thread
// count (tested in test_obs.cpp).
//
// The sink is a fixed-capacity ring buffer guarded by a mutex — spans
// are stage-granular (tens per pipeline run, not per row), so a lock is
// simpler and TSan-clean; the hot per-row paths use MetricsRegistry's
// atomics instead.  One exporter: plain JSON ({"spans": [...]}, times in
// ns, parent ids) — tzgeo_cli --trace-out and pipeline_bench --trace-out
// both write it, and tools/tzgeo_obs_check validates it.
//
// With kDisabled (see obs/metrics.hpp) ScopedSpan compiles to an empty
// object and TraceContext::current_span() is constant 0.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"

namespace tzgeo::obs {

/// One completed span.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;  ///< dense per-thread index (first-use order)
  std::string name;
};

/// Thread-safe fixed-capacity ring of completed spans (newest win).
class TraceBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  void record(SpanRecord record);

  /// Retained spans, oldest-first by arrival.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Spans ever recorded (>= retained when the ring wrapped).
  [[nodiscard]] std::uint64_t recorded() const noexcept;
  /// Spans evicted by ring wrap-around.
  [[nodiscard]] std::uint64_t dropped() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  void clear();

  /// {"spans": [{id, parent, thread, name, start_ns, end_ns}, ...]}.
  [[nodiscard]] std::string to_json() const;

  /// The process-wide sink ScopedSpan records into by default.
  static TraceBuffer& global();

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<SpanRecord> ring_;  ///< guarded by mutex_
  std::size_t next_ = 0;          ///< ring write cursor
  std::uint64_t total_ = 0;       ///< records ever seen
};

/// Thread-local current-span bookkeeping + id allocation.
class TraceContext {
 public:
  /// The calling thread's innermost live span id (0 = none).
  [[nodiscard]] static std::uint64_t current_span() noexcept;

  /// Dense index of the calling thread (assigned on first use).
  [[nodiscard]] static std::uint32_t thread_index() noexcept;

  /// Fresh process-unique span id (never 0).
  [[nodiscard]] static std::uint64_t next_id() noexcept;

  /// RAII adoption of a foreign span as the thread's current span — the
  /// propagation edge ThreadPool workers use.  Restores the previous
  /// current span on destruction.
  class Scope {
   public:
    explicit Scope(std::uint64_t span_id) noexcept;
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::uint64_t previous_ = 0;
  };

 private:
  friend class ScopedSpan;
  static void set_current(std::uint64_t span_id) noexcept;
};

/// RAII span: records into `sink` (default: TraceBuffer::global()).
/// `name` must outlive the span (string literals by convention).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, TraceBuffer* sink = nullptr) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when kDisabled).
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_ = nullptr;
  TraceBuffer* sink_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
};

}  // namespace tzgeo::obs
