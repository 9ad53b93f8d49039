// Health registry: heartbeats, stall detection, and a machine-readable
// healthz verdict.
//
// Counters say how much work happened; they cannot say that work
// *stopped*.  Long-running components (the forum monitor, the thread
// pool, the tor transport) register once and then beat — one relaxed
// store of Stopwatch::now_ns() — every time they make progress.  A
// report() call compares last-beat ages against each component's stall
// threshold:
//
//   starting — registered, active, never beaten (startup grace)
//   idle     — no work in flight; age is irrelevant
//   ok       — work in flight, beaten recently
//   stalled  — work in flight, last beat older than the threshold
//   failed   — the component marked itself failed (sticky until cleared)
//
// The active-work gate matters: a monitor between campaigns is idle,
// not stalled, no matter how old its last beat is.  Wrap begin_work /
// end_work around in-flight sections (WorkScope is the RAII form) and
// beat inside loops.
//
// The JSON report is the future `GET /healthz` body for tzgeo::serve
// (ROADMAP item 1): {"status": "...", "components": [...]}.
// Compiles out under TZGEO_OBS_DISABLED like the rest of the obs layer.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "util/json.hpp"

namespace tzgeo::obs {

enum class HealthState : std::uint8_t { kStarting, kIdle, kOk, kStalled, kFailed };

class Health {
 public:
  using ComponentId = std::uint32_t;
  static constexpr ComponentId kInvalidComponent = 0xFFFFFFFFu;
  static constexpr std::size_t kMaxComponents = 64;
  static constexpr std::size_t kNameCapacity = 48;
  static constexpr std::size_t kReasonCapacity = 96;
  /// Default stall threshold: 30 s of in-flight silence.
  static constexpr std::uint64_t kDefaultStallNs = 30'000'000'000ull;

  Health() = default;
  Health(const Health&) = delete;
  Health& operator=(const Health&) = delete;

  /// Registers (or finds, by name cut to kNameCapacity - 1 bytes) a
  /// component.  Slow path; call once and keep the id.  Past capacity it
  /// returns kInvalidComponent and counts the refusal in Report::refused.
  ComponentId component(std::string_view name,
                        std::uint64_t stall_after_ns = kDefaultStallNs);

  // --- hot path -----------------------------------------------------------

  /// Progress heartbeat: two relaxed stores.  Tests pass an explicit
  /// timestamp; production call sites use the default.
  void beat(ComponentId id) noexcept {  // tzgeo: hot
    beat_at(id, Stopwatch::now_ns());
  }
  void beat_at(ComponentId id, std::uint64_t t_ns) noexcept {  // tzgeo: hot
    if constexpr (kDisabled) {
      (void)id;
      (void)t_ns;
    } else {
      if (id >= count_.load(std::memory_order_acquire)) return;
      Component& c = components_[id];
      c.last_beat_ns.store(t_ns, std::memory_order_relaxed);
      c.beats.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Marks work in flight; stall detection only applies while the
  /// active count is positive.  Also refreshes the beat so the stall
  /// clock starts at the work boundary, not at the previous campaign.
  void begin_work(ComponentId id) noexcept;
  void end_work(ComponentId id) noexcept;

  /// RAII work section; survives exceptions in the monitored code.
  class WorkScope {
   public:
    WorkScope(Health& health, ComponentId id) noexcept : health_(health), id_(id) {
      health_.begin_work(id_);
    }
    ~WorkScope() { health_.end_work(id_); }
    WorkScope(const WorkScope&) = delete;
    WorkScope& operator=(const WorkScope&) = delete;

   private:
    Health& health_;
    ComponentId id_;
  };

  // --- failure latching ---------------------------------------------------

  /// Latches the component failed with a short reason; sticky until
  /// clear_failed.  Slow path (takes the registration mutex).
  void mark_failed(ComponentId id, std::string_view reason);
  void clear_failed(ComponentId id);

  // --- reads --------------------------------------------------------------

  struct ComponentReport {
    std::string name;
    HealthState state = HealthState::kStarting;
    std::uint64_t beats = 0;
    std::uint64_t last_beat_age_ns = 0;  ///< 0 when never beaten
    std::uint64_t stall_after_ns = 0;
    std::uint32_t active = 0;
    std::string reason;  ///< non-empty only when failed
  };

  struct Report {
    HealthState overall = HealthState::kOk;  ///< worst component verdict
    std::vector<ComponentReport> components;
    std::uint64_t refused = 0;  ///< registrations refused past kMaxComponents
  };

  [[nodiscard]] Report report(std::uint64_t now_ns = Stopwatch::now_ns()) const;

  /// True iff no component is stalled or failed.
  [[nodiscard]] bool healthy(std::uint64_t now_ns = Stopwatch::now_ns()) const;

  /// {"status": "ok"|"stalled"|"failed", "components": [...],
  /// "refused_components": N} — the healthz body.
  [[nodiscard]] util::JsonValue to_json(std::uint64_t now_ns = Stopwatch::now_ns()) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  /// Forgets all components.  For tests.
  void reset();

  /// The process-wide health registry.
  static Health& global();

 private:
  struct Component {
    char name[kNameCapacity] = {};
    std::uint8_t name_len = 0;
    std::uint64_t stall_after_ns = kDefaultStallNs;
    std::atomic<std::uint64_t> last_beat_ns{0};
    std::atomic<std::uint64_t> beats{0};
    std::atomic<std::uint32_t> active{0};
    std::atomic<bool> failed{false};
    char reason[kReasonCapacity] = {};  ///< guarded by mutex_
    std::uint8_t reason_len = 0;        ///< guarded by mutex_
  };

  [[nodiscard]] static HealthState judge(const Component& c, std::uint64_t now_ns,
                                         std::uint64_t last_beat,
                                         std::uint64_t beats,
                                         std::uint32_t active) noexcept;

  mutable std::mutex mutex_;  ///< guards registration + failure reasons
  std::atomic<std::size_t> count_{0};
  std::uint64_t refused_ = 0;  ///< guarded by mutex_
  std::array<Component, kMaxComponents> components_;
};

}  // namespace tzgeo::obs
