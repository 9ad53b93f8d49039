// Hourly activity profiles (Equations 1 and 2 of the paper).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "timezone/civil.hpp"
#include "util/constants.hpp"

namespace tzgeo::core {

/// A 24-bin probability distribution over the hour of the day.
///
/// Equation 1 defines the user profile as the normalized count, per hour,
/// of (day, hour) cells in which the user was active; Equation 2 averages
/// user profiles into a population profile.  Both produce HourlyProfiles.
class HourlyProfile {
 public:
  /// The uniform profile (every value 1/24).
  HourlyProfile();

  /// Normalizes 24 non-negative counts into a profile.  All-zero counts
  /// yield the uniform profile.  Throws on wrong arity or negative values.
  static HourlyProfile from_counts(std::span<const double> counts);

  /// Wraps an already-normalized 24-vector (re-normalizing defensively).
  static HourlyProfile from_distribution(std::span<const double> values);

  [[nodiscard]] double operator[](std::size_t hour) const { return values_.at(hour); }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

  /// Cyclic shift: positive `hours` moves mass toward later hours
  /// (result[h] = this[h - hours] mod 24).  Note the zone semantics: a
  /// crowd living at UTC+k is active k hours *earlier* on the UTC axis, so
  /// its UTC-hour profile is the canonical shape shifted by -k (see
  /// TimeZoneProfiles::zone_profile).
  [[nodiscard]] HourlyProfile shifted(std::int32_t hours) const;

  /// Linear-axis EMD to another profile (the paper's placement distance).
  [[nodiscard]] double emd_to(const HourlyProfile& other) const;
  /// Circular-axis EMD (ablation alternative).
  [[nodiscard]] double circular_emd_to(const HourlyProfile& other) const;
  /// Pearson correlation of the two 24-vectors.
  [[nodiscard]] double pearson_to(const HourlyProfile& other) const;

  /// EMD to the uniform profile — the flatness score of Section IV-C.
  [[nodiscard]] double flatness() const;

  friend bool operator==(const HourlyProfile&, const HourlyProfile&) = default;

 private:
  explicit HourlyProfile(std::vector<double> values);
  std::vector<double> values_;
};

/// Sorts encoded (day, hour) cells (see cell_of_day_hour) unless they are
/// already non-decreasing — the usual case for time-ordered input, checked
/// in one linear pass — and moves the distinct cells to the front, in
/// ascending order.  Returns how many are distinct.  This is the one cell
/// dedup of the code base: every Equation 1 path runs through it.
[[nodiscard]] std::size_t dedup_cells(std::span<std::int64_t> cells);

/// Equation 1 over a user's activity cells: dedups them in place
/// (dedup_cells), counts the distinct cells per hour of day and normalizes
/// the 24 counts (HourlyProfile::from_counts).
[[nodiscard]] HourlyProfile profile_of_cells(std::span<std::int64_t> cells);

/// Equation 1 over raw UTC instants: their cells (tz::hour_cell_of) go
/// into `scratch`, a caller-owned buffer reused across calls, and from
/// there through profile_of_cells.
[[nodiscard]] HourlyProfile profile_of_events(std::span<const tz::UtcSeconds> events,
                                              std::vector<std::int64_t>& scratch);

/// Equation 2: population profile as the normalized sum of user profiles.
/// (Each user profile sums to 1, so this is the per-bin mean.)
[[nodiscard]] HourlyProfile aggregate_profiles(std::span<const HourlyProfile> profiles);

}  // namespace tzgeo::core
