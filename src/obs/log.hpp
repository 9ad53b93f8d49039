// Structured, leveled logging with an allocation-free hot path.
//
// Library code must never write raw diagnostics to stderr (the
// stderr-log lint rule enforces this): a crawler that prints a line per
// transient fault is unusable at campaign scale, and unstructured text
// cannot feed dashboards.  obs::Log is the sanctioned sink.  Design
// constraints mirror MetricsRegistry:
//
//   1. Sites are registered once (slow, mutex-guarded) and return a
//      small SiteId; the hot path `write()` touches only pre-sized
//      buffers — fixed-capacity ring of fixed-size records, stack
//      scratch for field formatting — so steady state never allocates.
//   2. Per-site rate limiting: each site carries a max-per-second
//      budget enforced with one packed CAS (second << 32 | count), so a
//      retry storm costs a relaxed RMW per suppressed line, not I/O.
//   3. Records land in a ring (newest overwrite oldest; overwrites are
//      counted and surfaced via PipelineMetrics); snapshot(), to_jsonl()
//      and to_json() read it.  Message/field overflow truncates, never
//      spills.
//   4. The whole facility compiles out under TZGEO_OBS_DISABLED, like
//      metrics and traces.
//
// Levels are attached to *sites*, not calls: a site is one diagnostic
// event class ("forum.poll_failed"), registered with its severity and
// budget where it is used.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace tzgeo::obs {

enum class LogLevel : std::uint8_t { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// One typed key/value attachment to a log record.  Built by the
/// `field()` helpers; keys and string values are borrowed for the
/// duration of the `write()` call only.
struct LogField {
  enum class Kind : std::uint8_t { kInt, kUint, kDouble, kBool, kString };
  std::string_view key;
  Kind kind = Kind::kInt;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double d = 0.0;
  bool b = false;
  std::string_view s;
};

/// Builds a LogField from any scalar or string-ish value.  Takes the
/// value by reference so a std::string argument stays alive at the call
/// site for the full write() expression.
template <typename T>
[[nodiscard]] LogField field(std::string_view key, const T& value) noexcept {
  LogField f;
  f.key = key;
  if constexpr (std::is_same_v<T, bool>) {
    f.kind = LogField::Kind::kBool;
    f.b = value;
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    f.kind = LogField::Kind::kString;
    f.s = std::string_view{value};
  } else if constexpr (std::is_floating_point_v<T>) {
    f.kind = LogField::Kind::kDouble;
    f.d = static_cast<double>(value);
  } else if constexpr (std::is_unsigned_v<T>) {
    f.kind = LogField::Kind::kUint;
    f.u = static_cast<std::uint64_t>(value);
  } else {
    static_assert(std::is_integral_v<T>, "unsupported log field type");
    f.kind = LogField::Kind::kInt;
    f.i = static_cast<std::int64_t>(value);
  }
  return f;
}

class Log {
 public:
  using SiteId = std::uint32_t;
  static constexpr SiteId kInvalidSite = 0xFFFFFFFFu;
  /// Fixed capacities: the hot path never grows anything.
  static constexpr std::size_t kMaxSites = 128;
  static constexpr std::size_t kSiteNameCapacity = 48;
  static constexpr std::size_t kMessageCapacity = 192;
  static constexpr std::size_t kFieldsCapacity = 256;
  static constexpr std::size_t kDefaultCapacity = 1024;
  static constexpr std::uint32_t kDefaultPerSecond = 32;

  explicit Log(std::size_t capacity = kDefaultCapacity);
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  /// Registers (or finds, by name) a diagnostic site.  Slow path; call
  /// once and keep the id.  Names are cut to kSiteNameCapacity - 1 bytes,
  /// so two names that agree that far are one site.  `max_per_second` ==
  /// 0 disables the rate limit.  Past kMaxSites, returns kInvalidSite and
  /// counts the refusal in refused_sites().
  SiteId site(std::string_view name, LogLevel level,
              std::uint32_t max_per_second = kDefaultPerSecond);

  // --- hot path -----------------------------------------------------------

  /// Emits one record: level gate (relaxed load), per-site rate limit
  /// (one CAS), field formatting into stack scratch, one ring slot copy
  /// under the ring mutex.  Message and fields truncate at the record
  /// capacities.  Timestamped with Stopwatch::now_ns().
  void write(SiteId id, std::string_view message,
             std::initializer_list<LogField> fields = {}) noexcept;

  /// Same with an explicit timestamp — deterministic tests drive the
  /// rate-limiter clock through this.
  void write_at(std::uint64_t t_ns, SiteId id, std::string_view message,
                std::initializer_list<LogField> fields = {}) noexcept;

  /// True when a write on this site would pass the level gate — lets
  /// callers skip expensive field computation for suppressed sites.
  [[nodiscard]] bool enabled(SiteId id) const noexcept;

  // --- configuration ------------------------------------------------------

  /// Records below this level are suppressed (counted).  Default kInfo.
  void set_min_level(LogLevel level) noexcept {
    min_level_.store(static_cast<std::uint8_t>(level), std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel min_level() const noexcept {
    return static_cast<LogLevel>(min_level_.load(std::memory_order_relaxed));
  }

  /// Runtime kill switch, like MetricsRegistry::set_runtime_enabled.
  void set_runtime_enabled(bool enabled) noexcept {
    runtime_enabled_.store(enabled, std::memory_order_relaxed);
  }

  // --- reads --------------------------------------------------------------

  struct RecordView {
    std::uint64_t seq = 0;
    std::uint64_t t_ns = 0;
    LogLevel level = LogLevel::kInfo;
    std::uint32_t thread = 0;
    bool truncated = false;
    std::string site;
    std::string message;
    std::string fields_json;  ///< object body text, no braces
  };

  /// Retained records, oldest first.
  [[nodiscard]] std::vector<RecordView> snapshot() const;
  /// Retained records as JSONL text, one object per line.
  [[nodiscard]] std::string to_jsonl() const;
  /// {"records": [...]} for embedding in dumps.
  [[nodiscard]] util::JsonValue to_json() const;

  [[nodiscard]] std::uint64_t emitted() const noexcept {
    return emitted_.load(std::memory_order_relaxed);
  }
  /// Ring overwrites (oldest record lost).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Writes dropped by the level gate or kill switch.
  [[nodiscard]] std::uint64_t suppressed_level() const noexcept {
    return suppressed_level_.load(std::memory_order_relaxed);
  }
  /// Writes dropped by a per-site rate limit.
  [[nodiscard]] std::uint64_t suppressed_rate() const noexcept {
    return suppressed_rate_.load(std::memory_order_relaxed);
  }

  /// Site registrations refused past kMaxSites (kept by clear(), like
  /// the sites themselves).
  [[nodiscard]] std::uint64_t refused_sites() const noexcept {
    return refused_sites_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t retained() const;

  /// Drops retained records and zeroes counters (sites are kept).
  void clear();

  /// The process-wide log the pipeline writes to.
  static Log& global();

 private:
  struct Site {
    char name[kSiteNameCapacity] = {};
    std::uint8_t name_len = 0;
    LogLevel level = LogLevel::kInfo;
    std::uint32_t max_per_second = 0;
    std::atomic<std::uint64_t> window{0};  ///< (second << 32) | count
  };

  struct Record {
    std::uint64_t seq = 0;
    std::uint64_t t_ns = 0;
    std::uint32_t site = 0;
    std::uint32_t thread = 0;
    LogLevel level = LogLevel::kInfo;
    bool truncated = false;
    std::uint16_t msg_len = 0;
    std::uint16_t fields_len = 0;
    char msg[kMessageCapacity] = {};
    char fields[kFieldsCapacity] = {};
  };

  [[nodiscard]] bool rate_limit_allows(Site& site, std::uint64_t t_ns) noexcept;
  void count_suppressed() noexcept;

  std::size_t capacity_ = 0;

  mutable std::mutex site_mutex_;  ///< guards site registration metadata
  std::atomic<std::size_t> site_count_{0};
  std::atomic<std::uint64_t> refused_sites_{0};
  std::array<Site, kMaxSites> sites_;

  mutable std::mutex ring_mutex_;  ///< guards the ring
  std::vector<Record> ring_;       ///< pre-sized to capacity_ at construction
  std::size_t next_ = 0;
  std::size_t retained_ = 0;
  std::uint64_t seq_ = 0;

  std::atomic<std::uint8_t> min_level_{static_cast<std::uint8_t>(LogLevel::kInfo)};
  std::atomic<bool> runtime_enabled_{true};
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> suppressed_level_{0};
  std::atomic<std::uint64_t> suppressed_rate_{0};
};

}  // namespace tzgeo::obs
