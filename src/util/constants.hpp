// Canonical numeric constants of the tzgeo domain.
//
// This header is the single home of the hour/zone magic numbers (24 bins,
// UTC-11..+12, hour 0..23).  `tzgeo-lint` enforces the rule mechanically:
// integer literals 23/24/25 (and their .0 float forms) may appear in src/
// only in this file — everywhere else the named constants below keep
// profile widths, zone counts, and cell encodings provably consistent.
//
// The constants live in util — the bottom of the layer DAG — and in the
// enclosing `tzgeo` namespace, so every module can both include and name
// them without a link edge or a qualifier.  (They started life in
// src/core/constants.hpp as a header-only textual include, which made
// stats/timezone/obs reach *up* the layer DAG for a header they could not
// link; tzgeo_analyze's layering pass now rejects exactly that pattern.)
#pragma once

#include <cstddef>
#include <cstdint>

namespace tzgeo {

/// Hours per day, in the signed type used by (day, hour) cell encodings.
inline constexpr std::int64_t kHoursPerDay = 24;

/// Hours per day as a double, for wrap-around and shift arithmetic.
inline constexpr double kHoursPerDayF = 24.0;

/// Half a day in hours: the maximum circular distance between two zones.
inline constexpr double kHalfDayHoursF = 12.0;

/// Largest valid hour-of-day (inclusive), for range checks on parsed input.
inline constexpr std::int32_t kMaxHourOfDay = 23;

/// Hours per profile; profiles are distributions over the hour of day.
inline constexpr std::size_t kProfileBins = 24;

/// World time zones span UTC-11 .. UTC+12 (24 zones).
inline constexpr std::int32_t kMinZone = -11;
inline constexpr std::int32_t kMaxZone = 12;
inline constexpr std::size_t kZoneCount = 24;

static_assert(kZoneCount == kProfileBins,
              "one zone per profile bin: placement maps hour profiles onto zone bins");
static_assert(static_cast<std::int64_t>(kProfileBins) == kHoursPerDay,
              "profiles bin the hours of one day");
static_assert(kMaxZone - kMinZone + 1 == static_cast<std::int32_t>(kZoneCount),
              "the zone range must cover exactly kZoneCount offsets");

/// Encodes an absolute (day, hour-of-day) pair into one activity cell.
[[nodiscard]] inline constexpr std::int64_t cell_of_day_hour(std::int64_t day,
                                                             std::int64_t hour) noexcept {
  return day * kHoursPerDay + hour;
}

/// Hour-of-day (0..23) of an encoded activity cell; correct for negative
/// cells (pre-epoch timestamps), where `%` alone would be off by a day.
[[nodiscard]] inline constexpr std::int64_t hour_of_cell(std::int64_t cell) noexcept {
  return ((cell % kHoursPerDay) + kHoursPerDay) % kHoursPerDay;
}

/// Absolute day of an encoded activity cell: the floor-division inverse of
/// cell_of_day_hour, correct for negative cells where `/` would round
/// toward zero.
[[nodiscard]] inline constexpr std::int64_t day_of_cell(std::int64_t cell) noexcept {
  const std::int64_t days = cell / kHoursPerDay;
  return cell % kHoursPerDay < 0 ? days - 1 : days;
}

}  // namespace tzgeo
