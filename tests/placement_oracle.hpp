// Independent references for circular-EMD placement, shared by the
// placement tests.  Neither goes through the SoA crowd, the SIMD group
// kernels, or the prune:
//   * circular_emd_breakpoints is the circular EMD by its definition,
//     min over c of sum_i |D_i - c| with D the running CDF difference.
//     The minimum of that piecewise-linear function of c sits at one of
//     its 24 breakpoints c = D_j, so an exhaustive scan of them is exact
//     up to rounding;
//   * place scans all 24 zones with the scalar stats::emd_circular_24 and
//     keeps the nearest and runner-up with strict <, so the first bin
//     attaining the minimum wins.  Every placement path must reproduce it
//     bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/placement.hpp"
#include "core/timezone_profiles.hpp"
#include "stats/emd.hpp"

namespace tzgeo::core::oracle {

[[nodiscard]] inline double circular_emd_breakpoints(const HourlyProfile& p,
                                                     const HourlyProfile& q) {
  std::vector<double> diffs(kProfileBins);
  double carried = 0.0;
  for (std::size_t i = 0; i < kProfileBins; ++i) {
    carried += p[i] - q[i];
    diffs[i] = carried;
  }
  double best = std::numeric_limits<double>::infinity();
  for (const double c : diffs) {
    double work = 0.0;
    for (const double d : diffs) work += std::abs(d - c);
    best = std::min(best, work);
  }
  return best;
}

[[nodiscard]] inline UserPlacement place(std::uint64_t user, const HourlyProfile& profile,
                                         const TimeZoneProfiles& zones) {
  UserPlacement placement{user, 0, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::infinity()};
  for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
    const double d =
        stats::emd_circular_24(profile.values().data(), zones.all()[bin].values().data());
    if (d < placement.distance) {
      placement.runner_up_distance = placement.distance;
      placement.distance = d;
      placement.zone_hours = zone_of_bin(bin);
    } else if (d < placement.runner_up_distance) {
      placement.runner_up_distance = d;
    }
  }
  return placement;
}

/// Circular EMD to the uniform profile (the Section IV-C flat test's
/// comparand).
[[nodiscard]] inline double to_uniform(const HourlyProfile& profile) {
  return stats::emd_circular_24(profile.values().data(), HourlyProfile{}.values().data());
}

/// The Section IV-C flat test: closer to uniform than to the nearest zone.
[[nodiscard]] inline bool is_flat(const HourlyProfile& profile, const TimeZoneProfiles& zones) {
  return to_uniform(profile) < place(0, profile, zones).distance;
}

}  // namespace tzgeo::core::oracle
