// The batched nearest-zone placement kernel.
//
// Placement (Section IV-A) compares one user profile against all 24
// shifted generic profiles and keeps the nearest and runner-up.  That
// inner loop used to be copy-pasted across place_crowd, the parallel
// place_range, build_dossier, the flat filter, and the incremental
// geolocator, each going through the allocating general-purpose EMD.
//
// PlacementEngine is the single shared implementation.  Built once per
// crowd, it precomputes everything that is loop-invariant:
//   * the 24 zone profiles in one contiguous 24x24 row-major matrix
//     (cache-friendly scanning instead of 24 scattered std::vectors);
//   * each zone profile's prefix sums (CDF), so a circular EMD against a
//     zone reduces to a prefix-difference scan plus a branchless
//     sorting-network reduction;
//   * the uniform profile and its CDF for the Section IV-C flat test.
// Each place() call computes the user's CDF once into a stack buffer and
// scans the cached rows — zero heap allocations, no mass re-validation.
// A cheap lower bound on the circular work additionally prunes zones that
// cannot beat the current runner-up without changing any computed value.
//
// Every placement path routes through this class (and through the same
// fixed-width kernels in stats/emd.hpp), so serial, batched, and pooled
// placement are bit-identical by construction.
#pragma once

#include <array>
#include <cstdint>

#include "core/placement.hpp"
#include "core/simd/simd.hpp"
#include "core/soa_crowd.hpp"
#include "core/timezone_profiles.hpp"

namespace tzgeo::core {

class PlacementEngine {
 public:
  /// Snapshots the 24 zone profiles of `zones`; the engine does not keep a
  /// reference, so it stays valid if `zones` is destroyed.
  PlacementEngine(const TimeZoneProfiles& zones, PlacementMetric metric);

  [[nodiscard]] PlacementMetric metric() const noexcept { return metric_; }

  /// Pruning effectiveness counters for the circular-EMD lower bound,
  /// accumulated by the stats-taking place() overload.  Metrics without a
  /// pruning step count every zone as evaluated.
  struct PlaceStats {
    std::uint64_t zones_pruned = 0;     ///< exact evaluations skipped
    std::uint64_t zones_evaluated = 0;  ///< exact evaluations run
  };

  /// Nearest and runner-up zone for one profile (the former inner loop).
  [[nodiscard]] UserPlacement place(std::uint64_t user,
                                    const HourlyProfile& profile) const noexcept;

  /// Same placement, additionally accumulating pruning counters into
  /// `stats`.  Bit-identical to the counter-free overload; callers batch
  /// the accumulator locally and flush to the metrics registry per chunk.
  [[nodiscard]] UserPlacement place(std::uint64_t user, const HourlyProfile& profile,
                                    PlaceStats& counters) const noexcept;

  /// Distance from a profile to the zone at `bin` (0..23).
  [[nodiscard]] double distance_to_zone(const HourlyProfile& profile,
                                        std::size_t bin) const noexcept;

  /// Distance from a profile to its nearest zone (flat-filter comparand).
  [[nodiscard]] double nearest_distance(const HourlyProfile& profile) const noexcept;

  /// Distance from a profile to the uniform profile (Section IV-C
  /// flatness test).
  [[nodiscard]] double distance_to_uniform(const HourlyProfile& profile) const noexcept;

  /// The plane kind place_soa() expects for this engine's metric (CDF
  /// planes for the EMD metrics, raw bins for total variation).
  [[nodiscard]] SoaCrowd::Planes soa_planes() const noexcept {
    return metric_ == PlacementMetric::kTotalVariation ? SoaCrowd::Planes::kBins
                                                       : SoaCrowd::Planes::kCdf;
  }

  /// Counters of one SoA batch (group granularity; one group = one
  /// simd::kLanes-wide kernel call).
  struct SoaStats {
    std::uint64_t groups = 0;
    std::uint64_t zone_groups_pruned = 0;     ///< whole-group lower-bound skips
    std::uint64_t zone_groups_evaluated = 0;  ///< exact group evaluations
  };

  /// Places groups [group_begin, group_end) of a prepared crowd through
  /// the active SIMD path, scattering each slot's result to
  /// out[crowd.index_of_slot(slot)].  `out` must span crowd.size()
  /// entries.  Lane l of a group computes exactly the operation sequence
  /// of place() on that slot's profile, so results are bit-identical to
  /// the per-user path regardless of dispatch path, grouping, or
  /// sharding.  No allocation.
  ///
  /// When `zone_counts` is non-null it must span kZoneCount entries; each
  /// placed slot bumps zone_counts[bin] while the group result is still
  /// cache-hot, saving the caller a full re-read of `out` at crawl scale.
  /// Counts are small integers held in doubles, so accumulation (and any
  /// per-shard merge) is exact in every order.
  ///
  /// When `to_uniform` is non-null it must span crowd.size() entries; each
  /// slot's distance_to_uniform() is scattered there like `out`, computed
  /// by the row kernel in the same group loop.  The Section IV-C flat flag
  /// is then to_uniform[i] < out[i].distance: out[i].distance is the exact
  /// minimum nearest_distance() computes, so the flag matches the per-user
  /// comparison bit-for-bit.
  void place_soa(const SoaCrowd& crowd, std::size_t group_begin, std::size_t group_end,
                 UserPlacement* out, SoaStats& counters, double* zone_counts = nullptr,
                 double* to_uniform = nullptr) const noexcept;

 private:
  /// Shared implementation of both place() overloads; the counter writes
  /// compile out of the kCountStats == false instantiation.
  template <bool kCountStats>
  [[nodiscard]] UserPlacement place_impl(std::uint64_t user, const HourlyProfile& profile,
                                         PlaceStats* counters) const noexcept;

  /// Distance from a user (raw bins + CDF) to one cached row.  `scratch`
  /// is 24 caller-provided doubles for the circular-EMD median select.
  [[nodiscard]] double row_distance(const double* user_bins, const double* user_cdf,
                                    const double* row_bins, const double* row_cdf,
                                    double* scratch) const noexcept;

  PlacementMetric metric_;
  std::array<double, kZoneCount * kProfileBins> zone_bins_{};  ///< row-major
  std::array<double, kZoneCount * kProfileBins> zone_cdfs_{};  ///< row-major
  /// Circular-EMD zone rows for the group kernels: each row is the zone's
  /// CDF followed by its 12 precomputed pair differences Q_i - Q_{i+12}
  /// (pitch simd::kCircularZoneRowPitch), feeding the vectorized prune's
  /// lower bound without re-deriving the differences per group.  The block
  /// at simd::kCircularZonePairOffset appends the kZoneCount x kZoneCount
  /// zone-pair circular-EMD matrix for the kernel's triangle-inequality
  /// prune leg.
  std::array<double, simd::kCircularZonePairOffset + kZoneCount * kZoneCount>
      zone_circ_rows_{};
  std::array<double, kProfileBins> uniform_bins_{};
  std::array<double, kProfileBins> uniform_cdf_{};
};

}  // namespace tzgeo::core
