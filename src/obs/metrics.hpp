// Metrics registry: lock-free counters, gauges, and fixed-bucket
// latency histograms for the pipeline hot paths.
//
// Design constraints, in order:
//   1. A hot-path update must be one relaxed atomic operation on a
//      pre-registered slot — no name lookup, no lock, no allocation.
//      Registration (slow, mutex-guarded) returns a small MetricId; the
//      slot array is fixed-capacity so update never races a reallocation.
//   2. The whole layer must compile out.  Building with
//      -DTZGEO_OBS_DISABLED makes kDisabled true and every update/span
//      body an empty inline function — bench/obs_overhead.cpp keeps the
//      instrumented build honest against that floor.
//   3. Snapshots are safe from any thread at any time: values are read
//      with relaxed loads, so a snapshot is a consistent-enough view for
//      monitoring (not a linearizable cut — fine for dashboards).
//
// Histograms use fixed power-of-two buckets (upper bounds 1, 2, 4, ...
// 2^14, +Inf in the recorded unit — microseconds by convention, suffix
// the metric name `_us`).  Fixed bounds keep observe() branch-free
// (std::bit_width) and make dumps from different runs comparable.
//
// Metric naming scheme: tzgeo_<layer>_<name>[_total|_us|...], e.g.
// tzgeo_ingest_rows_ok_total, tzgeo_placement_batch_us.  The registry
// dumps Prometheus text exposition and JSON (via util::json).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace tzgeo::obs {

#if defined(TZGEO_OBS_DISABLED)
inline constexpr bool kDisabled = true;
#else
inline constexpr bool kDisabled = false;
#endif

/// Handle to a registered metric; an index into the registry's slot array.
using MetricId = std::uint32_t;

/// Returned for registrations past capacity (updates on it are dropped).
inline constexpr MetricId kInvalidMetric = 0xFFFFFFFFu;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One decoded histogram state (snapshot-time view, not live).
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;  ///< per-bucket counts (not cumulative)
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
};

/// One metric in a snapshot.
struct MetricSample {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;   ///< counter value / gauge bits (int64)
  HistogramSnapshot histogram;  ///< kind == kHistogram only
};

class MetricsRegistry {
 public:
  /// Fixed capacity: updates never race slot-array growth.
  static constexpr std::size_t kMaxMetrics = 512;
  /// Power-of-two bucket count: upper bounds 2^0..2^(kBuckets-2), last +Inf.
  static constexpr std::size_t kHistogramBuckets = 16;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds, by exact name) a metric.  Thread-safe, slow
  /// path; call once at startup and keep the id.  Returns kInvalidMetric
  /// when capacity is exhausted or the name exists with another kind.
  MetricId counter(std::string_view name, std::string_view help = {});
  MetricId gauge(std::string_view name, std::string_view help = {});
  MetricId histogram(std::string_view name, std::string_view help = {});

  /// Bucket index a histogram value lands in: smallest i with
  /// value <= 2^i, clamped to the +Inf bucket.  Exposed for tests.
  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t value) noexcept {
    const std::size_t bit =
        value <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(value - 1));
    return bit < kHistogramBuckets - 1 ? bit : kHistogramBuckets - 1;
  }

  /// Upper bound of bucket `i` (the +Inf bucket returns UINT64_MAX).
  [[nodiscard]] static constexpr std::uint64_t bucket_bound(std::size_t i) noexcept {
    return i + 1 < kHistogramBuckets ? (std::uint64_t{1} << i)
                                     : ~std::uint64_t{0};
  }

  // --- hot path -----------------------------------------------------------

  /// Counter increment: one relaxed fetch_add.
  void add(MetricId id, std::uint64_t delta = 1) noexcept {  // tzgeo: hot
    if constexpr (kDisabled) {
      (void)id;
      (void)delta;
    } else {
      if (id >= kMaxMetrics || !runtime_enabled_.load(std::memory_order_relaxed)) return;
      slots_[id].value.fetch_add(delta, std::memory_order_relaxed);
    }
  }

  /// Gauge store: one relaxed store.
  void set(MetricId id, std::int64_t value) noexcept {  // tzgeo: hot
    if constexpr (kDisabled) {
      (void)id;
      (void)value;
    } else {
      if (id >= kMaxMetrics || !runtime_enabled_.load(std::memory_order_relaxed)) return;
      slots_[id].value.store(static_cast<std::uint64_t>(value), std::memory_order_relaxed);
    }
  }

  /// Histogram observation: three relaxed RMWs (bucket, sum, count).
  void observe(MetricId id, std::uint64_t value) noexcept {  // tzgeo: hot
    if constexpr (kDisabled) {
      (void)id;
      (void)value;
    } else {
      if (id >= kMaxMetrics || !runtime_enabled_.load(std::memory_order_relaxed)) return;
      Slot& slot = slots_[id];
      if (slot.hist == nullptr) return;
      (*slot.hist)[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
      slot.hist_sum.fetch_add(value, std::memory_order_relaxed);
      slot.hist_count.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // --- reads --------------------------------------------------------------

  /// Id of a registered metric by exact name, or kInvalidMetric.
  [[nodiscard]] MetricId find(std::string_view name) const;

  [[nodiscard]] std::uint64_t counter_value(MetricId id) const noexcept;
  [[nodiscard]] std::int64_t gauge_value(MetricId id) const noexcept;
  [[nodiscard]] HistogramSnapshot histogram_value(MetricId id) const;

  /// Kind of a registered metric (kCounter for out-of-range ids).  Kind
  /// is immutable after registration, so no lock is needed once the id
  /// is published via `registered_`.
  [[nodiscard]] MetricKind kind_of(MetricId id) const noexcept {
    if (id >= registered_.load(std::memory_order_acquire)) return MetricKind::kCounter;
    return slots_[id].kind;
  }

  /// Name copy of a registered metric; empty for out-of-range ids.
  [[nodiscard]] std::string name_of(MetricId id) const;

  /// Non-allocating histogram read for periodic samplers: writes
  /// kHistogramBuckets counts into `buckets` (must have room), then sum
  /// and count.  Returns false (and writes nothing) for non-histograms.
  bool read_histogram(MetricId id, std::uint64_t* buckets, std::uint64_t& sum,
                      std::uint64_t& count) const noexcept;  // tzgeo: hot

  /// All registered metrics with their current values.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Prometheus text exposition format (counters/gauges/histograms).
  [[nodiscard]] std::string prometheus() const;

  /// JSON dump: {"metrics": [{"name", "kind", "value" | buckets...}]}.
  [[nodiscard]] util::JsonValue to_json() const;

  /// Zeroes every value (registrations are kept).  For tests and benches.
  void reset() noexcept;

  /// Runtime kill switch (the compile-out is kDisabled).  Updates become
  /// a relaxed load + branch; used by bench/obs_overhead.cpp to compare
  /// instrumented vs. quiesced hot paths inside one binary.
  void set_runtime_enabled(bool enabled) noexcept {
    runtime_enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool runtime_enabled() const noexcept {
    return runtime_enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return registered_.load(std::memory_order_acquire);
  }

  /// The process-wide registry the pipeline instruments into.
  static MetricsRegistry& global();

 private:
  struct Slot {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::atomic<std::uint64_t> value{0};
    std::unique_ptr<std::array<std::atomic<std::uint64_t>, kHistogramBuckets>> hist;
    std::atomic<std::uint64_t> hist_sum{0};
    std::atomic<std::uint64_t> hist_count{0};
  };

  MetricId register_slot(std::string_view name, std::string_view help, MetricKind kind);

  mutable std::mutex mutex_;               ///< guards registration metadata
  std::atomic<std::size_t> registered_{0};  ///< published slot count
  std::atomic<bool> runtime_enabled_{true};
  std::array<Slot, kMaxMetrics> slots_;
};

/// Approximate quantile from fixed-bucket counts (upper-bound of the
/// bucket containing the q-th observation); 0 when empty.
[[nodiscard]] std::uint64_t approx_quantile(const HistogramSnapshot& histogram, double q) noexcept;

// --- Prometheus text-exposition helpers ------------------------------------
// Used by MetricsRegistry::prometheus(); exposed so tests can pin the
// escaping rules.

/// Escapes a HELP line payload: backslash and newline get backslash-escaped.
[[nodiscard]] std::string prometheus_escape_help(std::string_view text);

/// Maps arbitrary text to a valid metric name: [a-zA-Z_:][a-zA-Z0-9_:]*,
/// replacing every invalid byte with '_' (empty input becomes "_").
[[nodiscard]] std::string prometheus_sanitize_name(std::string_view name);

}  // namespace tzgeo::obs
