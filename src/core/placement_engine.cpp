#include "core/placement_engine.hpp"

#include <algorithm>

#include "core/simd/simd.hpp"
#include "stats/emd.hpp"

namespace tzgeo::core {

static_assert(kProfileBins == stats::kEmdFixedBins,
              "PlacementEngine requires 24-bin hour profiles");

PlacementEngine::PlacementEngine(const TimeZoneProfiles& zones) {
  for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
    double* circ = zone_circ_rows_.data() + bin * simd::kCircularZoneRowPitch;
    stats::prefix_sums_24(zones.all()[bin].values().data(), circ);
    for (std::size_t i = 0; i < kProfileBins / 2; ++i) {
      circ[kProfileBins + i] = circ[i] - circ[i + kProfileBins / 2];
    }
  }
  // Zone-pair circular EMD matrix for the kernels' triangle-inequality
  // prune: the exact scalar kernel on the zone profiles themselves, so each
  // entry carries at most the scalar kernel's own rounding error (covered
  // by the kernels' prune margin).  Symmetric with a zero diagonal.
  double* pair = zone_circ_rows_.data() + simd::kCircularZonePairOffset;
  for (std::size_t a = 0; a < kZoneCount; ++a) {
    pair[a * kZoneCount + a] = 0.0;
    for (std::size_t b = a + 1; b < kZoneCount; ++b) {
      const double d = stats::emd_circular_24(zones.all()[a].values().data(),
                                              zones.all()[b].values().data());
      pair[a * kZoneCount + b] = d;
      pair[b * kZoneCount + a] = d;
    }
  }
  stats::prefix_sums_24(HourlyProfile{}.values().data(), uniform_cdf_.data());
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
    kernels.place_circular(planes, stride, base, zone_circ_rows_.data(), group, group_stats);
    if (to_uniform != nullptr) {
      kernels.row_circular(planes, stride, base, uniform_cdf_.data(), lane_uniform);
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
