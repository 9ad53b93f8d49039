// Internal: one-stop flush of SoA placement batch counters.  Shared by
// the serial and sharded crowd paths so every batch reports the same
// inventory (lanes, vectorized prune counts, dispatch path) regardless of
// how it was scheduled.  Also the timed build and the pooled pass of an
// SoA crowd its owner places directly (the polish and the dossier batch).
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

/// Flushes the counters of one SoA batch (one shard or one serial crowd).
/// Pruning counters are reported in lane units (groups x kLanes) so they
/// stay comparable with the per-user path's zones_pruned/evaluated.
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

/// Transposes `users` into `crowd` in the planes `engine` places from and
/// reports the transpose as an uncached SoA preparation.
void build_soa_crowd(SoaCrowd& crowd, const std::vector<UserProfileEntry>& users,
                     const PlacementEngine& engine);

/// One pooled place_soa pass over every group of `crowd`: each live user's
/// placement and distance to uniform, scattered by input index.  Each
/// chunk is flushed through record_soa_batch; crowds under the serial
/// cutoff run as one chunk.
void place_soa_pooled(const PlacementEngine& engine, const SoaCrowd& crowd, UserPlacement* out,
                      double* to_uniform);

}  // namespace tzgeo::core::detail
