// The batched nearest-zone placement kernel.
//
// Placement (Section IV-A) compares one user profile against all 24
// shifted generic profiles under circular EMD and keeps the nearest and
// runner-up; the Section IV-C flat test compares the same profile against
// the uniform profile.  PlacementEngine is the one implementation of both.
// Built once per set of zone profiles, it precomputes everything that is
// loop-invariant:
//   * the circular zone rows: each zone profile's prefix sums (CDF) plus
//     its 12 half-offset CDF differences, the input of the group kernel's
//     lower bound;
//   * the zone-pair circular-EMD table for the kernel's
//     triangle-inequality prune;
//   * the uniform profile's CDF.
// place_soa() runs the active SIMD path's group kernels over a prepared
// SoaCrowd — zero heap allocations, no mass re-validation.  Every product
// caller (place_crowd, the polish, the dossiers, the incremental
// geolocator) places through it, so all of them are bit-identical to the
// scalar circular kernels in stats/emd.hpp by construction.
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
  explicit PlacementEngine(const TimeZoneProfiles& zones);

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
  /// entries.  Each slot gets the nearest zone under circular EMD (ties go
  /// to the first zone bin), its distance and the runner-up distance —
  /// exactly what an exhaustive stats::emd_circular_24 scan of the 24
  /// zones computes, regardless of dispatch path, grouping, or sharding.
  /// No allocation.
  ///
  /// When `zone_counts` is non-null it must span kZoneCount entries; each
  /// placed slot bumps zone_counts[bin] while the group result is still
  /// cache-hot, saving the caller a full re-read of `out` at crawl scale.
  /// Counts are small integers held in doubles, so accumulation (and any
  /// per-shard merge) is exact in every order.
  ///
  /// When `to_uniform` is non-null it must span crowd.size() entries; each
  /// slot's circular EMD to the uniform profile is scattered there like
  /// `out`, computed by the row kernel in the same group loop.  The
  /// Section IV-C flat flag is then to_uniform[i] < out[i].distance.
  void place_soa(const SoaCrowd& crowd, std::size_t group_begin, std::size_t group_end,
                 UserPlacement* out, SoaStats& counters, double* zone_counts = nullptr,
                 double* to_uniform = nullptr) const noexcept;

 private:
  /// Circular-EMD zone rows for the group kernels: each row is the zone's
  /// CDF followed by its 12 precomputed pair differences Q_i - Q_{i+12}
  /// (pitch simd::kCircularZoneRowPitch), feeding the vectorized prune's
  /// lower bound without re-deriving the differences per group.  The block
  /// at simd::kCircularZonePairOffset appends the kZoneCount x kZoneCount
  /// zone-pair circular-EMD matrix for the kernel's triangle-inequality
  /// prune leg.
  std::array<double, simd::kCircularZonePairOffset + kZoneCount * kZoneCount>
      zone_circ_rows_{};
  std::array<double, kProfileBins> uniform_cdf_{};
};

}  // namespace tzgeo::core
