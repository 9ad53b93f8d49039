// Internal: the timed passes of the SoA placement engine and the flush of
// their counters.  Every placement runs through these helpers — place_crowd,
// the polish, the dossiers and the incremental geolocator — so every batch
// reports the same inventory (lanes, vectorized prune counts, dispatch
// path) regardless of how it was scheduled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/placement_engine.hpp"
#include "core/simd/simd.hpp"
#include "obs/pipeline_metrics.hpp"

namespace tzgeo::core::detail {

static_assert(std::tuple_size_v<decltype(obs::PipelineMetrics::placement_path_batches)> ==
                  simd::kPathCount,
              "per-path batch counters must cover every dispatch path");

/// Flushes the counters of one SoA batch.  Pruning counters are reported
/// in lane units (groups x kLanes), i.e. as per-user zone checks.
inline void record_soa_batch(std::uint64_t elapsed_us, std::size_t users,
                             const PlacementEngine::SoaStats& counters) {
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.add(metrics.placement_batches);
  registry.add(metrics.placement_users, users);
  registry.observe(metrics.placement_batch_us, elapsed_us);
  registry.add(metrics.placement_simd_lanes, counters.groups * simd::kLanes);
  registry.add(metrics.placement_zones_pruned_vectorized,
               counters.zone_groups_pruned * simd::kLanes);
  registry.add(metrics.placement_zones_evaluated_vectorized,
               counters.zone_groups_evaluated * simd::kLanes);
  const auto path = static_cast<std::size_t>(simd::active_path());
  if (path < metrics.placement_path_batches.size()) {
    registry.add(metrics.placement_path_batches[path]);
  }
}

/// Flushes the SoA preparation counters of one crowd: cache outcome plus
/// the transpose latency when the crowd was actually (re)built.
inline void record_soa_prepare(const SoaCrowdCache::Prepare& prepare) {
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  if (prepare.hit) {
    registry.add(metrics.placement_soa_cache_hits);
  } else {
    registry.add(metrics.placement_soa_cache_misses);
    registry.observe(metrics.placement_transpose_us, prepare.transpose_us);
  }
}

/// Adds a crowd's final per-zone user counts to the per-zone counters.
inline void record_zone_counts(const std::vector<double>& counts) {
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
    registry.add(metrics.placement_zone[bin], static_cast<std::uint64_t>(counts[bin]));
  }
}

/// Transposes `users` into `crowd` and reports the transpose as an
/// uncached SoA preparation.
void build_soa_crowd(SoaCrowd& crowd, const std::vector<UserProfileEntry>& users);

/// One pooled place_soa pass over every group of `crowd`: each live user's
/// placement (and, when `to_uniform` is non-null, distance to uniform),
/// scattered by input index; when `zone_counts` is non-null, the per-zone
/// user counts are added to its kZoneCount entries.  Chunks split the
/// group range, never a group, so the result is the same for any chunking.
/// Each chunk is flushed through record_soa_batch; crowds under the serial
/// cutoff run as one chunk.
void place_soa_pooled(const PlacementEngine& engine, const SoaCrowd& crowd, UserPlacement* out,
                      double* to_uniform, double* zone_counts = nullptr);

/// The same pass on the calling thread alone, flushed as one batch — for
/// callers that may themselves run on a pool worker.
void place_soa_serial(const PlacementEngine& engine, const SoaCrowd& crowd, UserPlacement* out,
                      double* to_uniform);

}  // namespace tzgeo::core::detail
