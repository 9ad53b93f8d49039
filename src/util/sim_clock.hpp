// Simulated wall clock.
//
// The Tor transport and the forum crawler run against simulated time: every
// link setup and round trip the transport's link model draws advances the
// clock, and the no-timestamp monitor mode stamps observations with it.  Keeping time explicit (never reading the
// host clock) is what makes every experiment reproducible.
#pragma once

#include <cstdint>

namespace tzgeo::util {

/// Milliseconds-resolution simulated clock.
class SimClock {
 public:
  SimClock() = default;
  /// Starts at `epoch_seconds` (seconds since the Unix epoch).
  explicit SimClock(std::int64_t epoch_seconds) : millis_(epoch_seconds * 1000) {}

  [[nodiscard]] std::int64_t now_millis() const noexcept { return millis_; }
  [[nodiscard]] std::int64_t now_seconds() const noexcept { return millis_ / 1000; }

  void advance_millis(std::int64_t delta) noexcept { millis_ += delta; }
  void advance_seconds(std::int64_t delta) noexcept { millis_ += delta * 1000; }

  /// Jumps directly to an absolute time; must not move backwards.
  void set_seconds(std::int64_t seconds) noexcept { set_millis(seconds * 1000); }

  /// Millisecond-exact jump (checkpoint resume restores the clock through
  /// this); must not move backwards.
  void set_millis(std::int64_t millis) noexcept {
    if (millis > millis_) millis_ = millis;
  }

 private:
  std::int64_t millis_ = 0;
};

}  // namespace tzgeo::util
