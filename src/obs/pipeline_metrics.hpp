// Pre-registered metric handles for every pipeline layer.
//
// The hot paths must not pay a name lookup per update, so every metric
// the pipeline touches is registered once — on first use, into
// MetricsRegistry::global() — and the resulting ids are kept in this
// struct.  Call PipelineMetrics::get() (cheap after the first call) and
// update through the ids.
//
// Naming scheme: tzgeo_<layer>_<name>, `_total` suffix for counters,
// `_us`/`_ms` for histograms in that unit, bare names for gauges.
// DESIGN.md §10 documents the full inventory.
#pragma once

#include <array>

#include "util/constants.hpp"
#include "obs/metrics.hpp"

namespace tzgeo::obs {

struct PipelineMetrics {
  // ingest
  MetricId ingest_rows_ok = kInvalidMetric;
  MetricId ingest_rows_rejected = kInvalidMetric;
  MetricId ingest_bytes = kInvalidMetric;
  MetricId ingest_chunks = kInvalidMetric;
  MetricId ingest_chunk_parse_us = kInvalidMetric;
  MetricId ingest_escaped_fixups = kInvalidMetric;
  MetricId ingest_handle_load_factor_pct = kInvalidMetric;

  // placement
  MetricId placement_batches = kInvalidMetric;
  MetricId placement_users = kInvalidMetric;
  MetricId placement_batch_us = kInvalidMetric;
  std::array<MetricId, kZoneCount> placement_zone{};  ///< per-zone placements

  // placement, SoA/SIMD path
  MetricId placement_simd_lanes = kInvalidMetric;  ///< lane-slots processed
  MetricId placement_zones_pruned_vectorized = kInvalidMetric;
  MetricId placement_zones_evaluated_vectorized = kInvalidMetric;
  MetricId placement_transpose_us = kInvalidMetric;  ///< SoA build wall time
  MetricId placement_soa_cache_hits = kInvalidMetric;
  MetricId placement_soa_cache_misses = kInvalidMetric;
  /// Batches served per dispatch path, indexed by core::simd::Path.
  std::array<MetricId, 4> placement_path_batches{};

  // incremental geolocator
  MetricId incremental_observations = kInvalidMetric;
  MetricId incremental_snapshots = kInvalidMetric;
  MetricId incremental_snapshot_us = kInvalidMetric;
  MetricId incremental_refreshes = kInvalidMetric;
  MetricId incremental_compaction_backlog = kInvalidMetric;

  // forum crawler / monitor
  MetricId forum_pages_fetched = kInvalidMetric;
  MetricId forum_parse_failures = kInvalidMetric;
  MetricId forum_polls = kInvalidMetric;
  MetricId forum_polls_failed = kInvalidMetric;
  MetricId forum_polls_partial = kInvalidMetric;
  MetricId forum_poll_recoveries = kInvalidMetric;
  MetricId forum_poll_us = kInvalidMetric;
  MetricId forum_threads_quarantined = kInvalidMetric;
  MetricId forum_checkpoint_writes = kInvalidMetric;
  MetricId forum_checkpoint_resumes = kInvalidMetric;
  MetricId forum_checkpoint_write_us = kInvalidMetric;

  // forum fleet scheduler
  MetricId fleet_forums_active = kInvalidMetric;       ///< gauge
  MetricId fleet_forums_quarantined = kInvalidMetric;  ///< gauge
  MetricId fleet_forums_parked = kInvalidMetric;       ///< gauge
  MetricId fleet_rounds = kInvalidMetric;
  MetricId fleet_round_us = kInvalidMetric;
  MetricId fleet_forum_poll_us = kInvalidMetric;  ///< per-forum poll latency
  MetricId fleet_polls_skipped = kInvalidMetric;  ///< quarantine/park skips
  MetricId fleet_checkpoint_writes = kInvalidMetric;
  MetricId fleet_checkpoint_write_us = kInvalidMetric;
  MetricId fleet_checkpoint_resumes = kInvalidMetric;
  MetricId fleet_sub_entries_quarantined = kInvalidMetric;  ///< corrupt on resume

  // tor transport
  MetricId tor_requests = kInvalidMetric;
  MetricId tor_request_failures = kInvalidMetric;
  MetricId tor_retries = kInvalidMetric;
  MetricId tor_circuits_built = kInvalidMetric;
  MetricId tor_circuit_build_ms = kInvalidMetric;
  MetricId tor_rate_limit_waits = kInvalidMetric;

  // fault injection (chaos harness)
  MetricId fault_injections = kInvalidMetric;

  // observability self-metrics: losses inside the obs layer itself must
  // be visible, or a saturated ring reads as a quiet system.
  MetricId trace_spans_dropped = kInvalidMetric;    ///< global ring overwrites
  MetricId log_records_dropped = kInvalidMetric;    ///< log ring overwrites
  MetricId log_records_suppressed = kInvalidMetric; ///< level + rate-limit drops

  /// The shared instance, registered on MetricsRegistry::global() the
  /// first time any instrumented path runs.  Thread-safe (magic static).
  static const PipelineMetrics& get();
};

}  // namespace tzgeo::obs
