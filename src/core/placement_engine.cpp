#include "core/placement_engine.hpp"

#include <algorithm>
#include <limits>

#include "core/simd/simd.hpp"
#include "stats/emd.hpp"

namespace tzgeo::core {

static_assert(kProfileBins == stats::kEmdFixedBins,
              "PlacementEngine requires 24-bin hour profiles");

PlacementEngine::PlacementEngine(const TimeZoneProfiles& zones, PlacementMetric metric)
    : metric_(metric) {
  for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
    const std::vector<double>& values = zones.all()[bin].values();
    double* row = zone_bins_.data() + bin * kProfileBins;
    std::copy(values.begin(), values.end(), row);
    const double* cdf = zone_cdfs_.data() + bin * kProfileBins;
    stats::prefix_sums_24(row, zone_cdfs_.data() + bin * kProfileBins);
    double* circ = zone_circ_rows_.data() + bin * simd::kCircularZoneRowPitch;
    std::copy(cdf, cdf + kProfileBins, circ);
    for (std::size_t i = 0; i < kProfileBins / 2; ++i) {
      circ[kProfileBins + i] = cdf[i] - cdf[i + kProfileBins / 2];
    }
  }
  // Zone-pair circular EMD matrix for the kernels' triangle-inequality
  // prune: the exact scalar kernel on the zone rows themselves, so each
  // entry carries at most the scalar kernel's own rounding error (covered
  // by the kernels' prune margin).  Symmetric with a zero diagonal.
  double* pair = zone_circ_rows_.data() + simd::kCircularZonePairOffset;
  for (std::size_t a = 0; a < kZoneCount; ++a) {
    pair[a * kZoneCount + a] = 0.0;
    for (std::size_t b = a + 1; b < kZoneCount; ++b) {
      const double d = stats::emd_circular_24(zone_bins_.data() + a * kProfileBins,
                                              zone_bins_.data() + b * kProfileBins);
      pair[a * kZoneCount + b] = d;
      pair[b * kZoneCount + a] = d;
    }
  }
  const HourlyProfile uniform;
  std::copy(uniform.values().begin(), uniform.values().end(), uniform_bins_.begin());
  stats::prefix_sums_24(uniform_bins_.data(), uniform_cdf_.data());
}

double PlacementEngine::row_distance(const double* user_bins, const double* user_cdf,
                                     const double* row_bins, const double* row_cdf,
                                     double* scratch) const noexcept {
  switch (metric_) {
    case PlacementMetric::kEmd:
      return stats::emd_linear_cdf_24(user_cdf, row_cdf);
    case PlacementMetric::kCircularEmd:
      return stats::emd_circular_cdf_24(user_cdf, row_cdf, scratch);
    case PlacementMetric::kTotalVariation:
      return stats::total_variation_24(user_bins, row_bins);
  }
  return std::numeric_limits<double>::infinity();  // unreachable
}

template <bool kCountStats>
UserPlacement PlacementEngine::place_impl(std::uint64_t user, const HourlyProfile& profile,
                                          PlaceStats* counters) const noexcept {
  UserPlacement placement;
  placement.user = user;
  placement.distance = std::numeric_limits<double>::infinity();
  placement.runner_up_distance = std::numeric_limits<double>::infinity();

  const double* bins = profile.values().data();
  double cdf[kProfileBins];
  double scratch[kProfileBins];
  stats::prefix_sums_24(bins, cdf);

  // The nearest/runner-up update uses strict <, so any zone whose exact
  // distance is >= the current runner-up leaves the result unchanged.  The
  // circular loop exploits that: a cheap lower bound on the work skips the
  // exact sorting-network evaluation for zones that cannot qualify, which
  // is the common case (the true zone and its neighbours are close, the
  // other ~20 are far).  Skipping never changes the computed values, so
  // the result stays bit-identical to evaluating every zone exactly.
  const auto update = [&placement](double d, std::size_t bin) {
    if (d < placement.distance) {
      placement.runner_up_distance = placement.distance;
      placement.distance = d;
      placement.zone_hours = zone_of_bin(bin);
    } else if (d < placement.runner_up_distance) {
      placement.runner_up_distance = d;
    }
  };

  switch (metric_) {
    case PlacementMetric::kEmd:
      for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
        update(stats::emd_linear_cdf_24(cdf, zone_cdfs_.data() + bin * kProfileBins), bin);
      }
      if constexpr (kCountStats) counters->zones_evaluated += kZoneCount;
      break;
    case PlacementMetric::kCircularEmd:
      for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
        const double bound =
            stats::cdf_diff_bound_24(cdf, zone_cdfs_.data() + bin * kProfileBins, scratch);
        if (bound >= placement.runner_up_distance) {
          if constexpr (kCountStats) ++counters->zones_pruned;
          continue;
        }
        if constexpr (kCountStats) ++counters->zones_evaluated;
        update(stats::circular_work_24(scratch), bin);
      }
      break;
    case PlacementMetric::kTotalVariation:
      for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
        update(stats::total_variation_24(bins, zone_bins_.data() + bin * kProfileBins), bin);
      }
      if constexpr (kCountStats) counters->zones_evaluated += kZoneCount;
      break;
  }
  return placement;
}

UserPlacement PlacementEngine::place(std::uint64_t user,
                                     const HourlyProfile& profile) const noexcept {
  return place_impl<false>(user, profile, nullptr);
}

UserPlacement PlacementEngine::place(std::uint64_t user, const HourlyProfile& profile,
                                     PlaceStats& counters) const noexcept {
  return place_impl<true>(user, profile, &counters);
}

double PlacementEngine::distance_to_zone(const HourlyProfile& profile,
                                         std::size_t bin) const noexcept {
  const double* bins = profile.values().data();
  double cdf[kProfileBins];
  double scratch[kProfileBins];
  stats::prefix_sums_24(bins, cdf);
  return row_distance(bins, cdf, zone_bins_.data() + bin * kProfileBins,
                      zone_cdfs_.data() + bin * kProfileBins, scratch);
}

double PlacementEngine::nearest_distance(const HourlyProfile& profile) const noexcept {
  const double* bins = profile.values().data();
  double cdf[kProfileBins];
  double scratch[kProfileBins];
  stats::prefix_sums_24(bins, cdf);
  double best = std::numeric_limits<double>::infinity();
  if (metric_ == PlacementMetric::kCircularEmd) {
    // Same lower-bound pruning as place(): a zone whose bound is already
    // >= best cannot lower the minimum (strict <), so skip the exact sort.
    for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
      const double bound =
          stats::cdf_diff_bound_24(cdf, zone_cdfs_.data() + bin * kProfileBins, scratch);
      if (bound >= best) continue;
      const double d = stats::circular_work_24(scratch);
      if (d < best) best = d;
    }
    return best;
  }
  for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
    const double d = row_distance(bins, cdf, zone_bins_.data() + bin * kProfileBins,
                                  zone_cdfs_.data() + bin * kProfileBins, scratch);
    if (d < best) best = d;
  }
  return best;
}

double PlacementEngine::distance_to_uniform(const HourlyProfile& profile) const noexcept {
  const double* bins = profile.values().data();
  double cdf[kProfileBins];
  double scratch[kProfileBins];
  stats::prefix_sums_24(bins, cdf);
  return row_distance(bins, cdf, uniform_bins_.data(), uniform_cdf_.data(), scratch);
}

namespace {

/// Lanes of the last group that correspond to real slots (tail groups
/// carry replicated pad columns whose outputs are discarded).
[[nodiscard]] std::size_t live_lanes(std::size_t base, std::size_t size) noexcept {
  return std::min(size - base, simd::kLanes);
}

}  // namespace

// tzgeo: hot — per-group placement loop; allocation-free by construction.
void PlacementEngine::place_soa(const SoaCrowd& crowd, std::size_t group_begin,
                                std::size_t group_end, UserPlacement* out,
                                SoaStats& counters, double* zone_counts,
                                double* to_uniform) const noexcept {
  const simd::KernelTable& kernels = simd::kernels();
  const double* planes = crowd.planes();
  const std::size_t stride = crowd.stride();
  simd::GroupPlacement group;
  simd::GroupStats group_stats;
  alignas(64) double lane_uniform[simd::kLanes];
  for (std::size_t g = group_begin; g < group_end; ++g) {
    const std::size_t base = g * simd::kLanes;
    switch (metric_) {
      case PlacementMetric::kEmd:
        kernels.place_linear(planes, stride, base, zone_cdfs_.data(), group);
        if (to_uniform != nullptr) {
          kernels.row_linear(planes, stride, base, uniform_cdf_.data(), lane_uniform);
        }
        group_stats.zone_groups_evaluated += kZoneCount;
        break;
      case PlacementMetric::kCircularEmd:
        kernels.place_circular(planes, stride, base, zone_circ_rows_.data(), group,
                               group_stats);
        if (to_uniform != nullptr) {
          kernels.row_circular(planes, stride, base, uniform_cdf_.data(), lane_uniform);
        }
        break;
      case PlacementMetric::kTotalVariation:
        kernels.place_tv(planes, stride, base, zone_bins_.data(), group);
        if (to_uniform != nullptr) {
          kernels.row_tv(planes, stride, base, uniform_bins_.data(), lane_uniform);
        }
        group_stats.zone_groups_evaluated += kZoneCount;
        break;
    }
    const std::size_t lanes = live_lanes(base, crowd.size());
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t slot = base + l;
      const std::size_t index = crowd.index_of_slot(slot);
      const auto bin = static_cast<std::int32_t>(group.zone_bin[l]);
      UserPlacement& placement = out[index];
      placement.user = crowd.user_of_slot(slot);
      placement.zone_hours = kMinZone + bin;
      placement.distance = group.distance[l];
      placement.runner_up_distance = group.runner_up[l];
      if (zone_counts != nullptr) zone_counts[static_cast<std::size_t>(bin)] += 1.0;
      if (to_uniform != nullptr) to_uniform[index] = lane_uniform[l];
    }
  }
  counters.groups += group_end - group_begin;
  counters.zone_groups_pruned += group_stats.zone_groups_pruned;
  counters.zone_groups_evaluated += group_stats.zone_groups_evaluated;
}

}  // namespace tzgeo::core
