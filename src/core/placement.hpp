// EMD-based placement of anonymous users onto world time zones
// (Section IV-A).
//
// "For every member of an anonymous crowd, we compare its profile with that
// of all different timezone profiles [...].  Then, we geolocate that member
// on the timezone whose activity profile is less distant", with the Earth
// Mover's Distance as the metric.
#pragma once

#include <cstdint>
#include <vector>

#include "core/profile_builder.hpp"
#include "core/timezone_profiles.hpp"

namespace tzgeo::core {

/// Distance used to match a user profile against the 24 zone profiles.
///
/// The pipeline places under circular EMD only: hour profiles live on a
/// 24-hour circle, and the paper's placement explicitly allows "shifting
/// and moving probability mass" across midnight.  The other two metrics
/// exist for ablation A (bench/ablation_design) and are accepted only by
/// place_crowd and placement_distance.
enum class PlacementMetric : std::uint8_t {
  kEmd,          ///< linear-axis EMD (ablation: breaks at the midnight wrap)
  kCircularEmd,  ///< circular EMD (the pipeline's metric)
  kTotalVariation,  ///< bin-wise L1/2 (ablation; ignores ground distance)
};

/// One user's placement.
struct UserPlacement {
  std::uint64_t user = 0;
  std::int32_t zone_hours = 0;  ///< best zone in [-11, 12]
  double distance = 0.0;        ///< distance to the winning zone profile
  /// Distance to the runner-up zone; the gap to `distance` is the
  /// placement margin — how decisively this user chose its zone.
  double runner_up_distance = 0.0;

  [[nodiscard]] double margin() const noexcept { return runner_up_distance - distance; }
};

/// A placed crowd.
struct PlacementResult {
  std::vector<UserPlacement> users;
  /// Raw user count per zone bin (index = bin_of_zone(k), 24 bins).
  std::vector<double> counts;
  /// counts normalized to sum to 1 — the "crowd placement distribution"
  /// plotted in Figures 3-5 and 9-13.
  std::vector<double> distribution;
};

/// Places every profiled user on its nearest time zone; ties go to the
/// first zone bin.  Under circular EMD the crowd is transposed once (and
/// cached, see SoaCrowdCache) and placed by one pass of the group kernels
/// across the process-wide thread pool, bit-identical to placing each user
/// alone.  The ablation metrics run a plain exhaustive scan of
/// placement_distance over the 24 zones.
[[nodiscard]] PlacementResult place_crowd(const std::vector<UserProfileEntry>& users,
                                          const TimeZoneProfiles& zones,
                                          PlacementMetric metric = PlacementMetric::kCircularEmd);

/// Distance between a profile and one zone profile under `metric`: the
/// fixed-24 circular kernel for circular EMD (bit-identical to the group
/// kernels), the validating span functions of stats/emd.hpp otherwise.
[[nodiscard]] double placement_distance(const HourlyProfile& profile,
                                        const HourlyProfile& zone_profile,
                                        PlacementMetric metric);

/// Crowd-level placement confidence.
struct PlacementConfidence {
  double mean_margin = 0.0;    ///< average best-vs-runner-up gap
  double median_margin = 0.0;
  /// Share of users whose margin exceeds 10% of their best distance —
  /// users that chose their zone decisively rather than by a hair.
  double decisive_fraction = 0.0;
};
[[nodiscard]] PlacementConfidence placement_confidence(const PlacementResult& placement);

}  // namespace tzgeo::core
