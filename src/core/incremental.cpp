#include "core/incremental.hpp"

#include <algorithm>
#include <limits>

#include "core/activity.hpp"
#include "obs/pipeline_metrics.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "stats/histogram.hpp"
#include "util/checkpoint.hpp"

namespace tzgeo::core {

IncrementalGeolocator::IncrementalGeolocator(TimeZoneProfiles zones,
                                             GeolocationOptions options,
                                             std::size_t min_posts)
    : zones_(std::move(zones)),
      engine_(zones_, options.metric),
      options_(options),
      min_posts_(min_posts) {}

void IncrementalGeolocator::observe(std::uint64_t user, tz::UtcSeconds when) {
  const std::uint32_t handle = ids_.intern(user);
  if (handle == states_.size()) states_.emplace_back();
  UserState& state = states_[handle];
  state.cells.push_back(tz::hour_cell_of(when));
  ++pending_cells_;
  // Keep the duplicate-carrying tail bounded: once it outgrows the
  // deduplicated prefix, fold it in.
  if (state.cells.size() >= 64 && state.cells.size() > 2 * state.sorted) compact(state);
  ++state.posts;
  state.dirty = true;
  ++posts_;

  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.add(metrics.incremental_observations);
  registry.set(metrics.incremental_compaction_backlog,
               static_cast<std::int64_t>(pending_cells_));
}

void IncrementalGeolocator::observe(std::string_view identity, tz::UtcSeconds when) {
  observe(user_id_of(identity), when);
}

void IncrementalGeolocator::compact(UserState& state) {
  pending_cells_ -= state.cells.size() - state.sorted;
  state.cells.resize(dedup_cells(state.cells));
  state.sorted = state.cells.size();
}

void IncrementalGeolocator::refresh(std::uint64_t user, UserState& state) {
  if (state.sorted != state.cells.size()) compact(state);
  const HourlyProfile profile = profile_of_cells(state.cells);

  state.placement = engine_.place(user, profile);
  const double to_uniform = engine_.distance_to_uniform(profile);
  state.flat = options_.apply_flat_filter && to_uniform < state.placement.distance;
  state.dirty = false;
  obs::MetricsRegistry::global().add(obs::PipelineMetrics::get().incremental_refreshes);
}

std::string IncrementalGeolocator::checkpoint_payload() {
  util::ByteWriter writer;
  writer.u32(kCheckpointVersion);
  writer.u64(ids_.size());
  const auto& keys = ids_.keys();
  for (std::uint32_t handle = 0; handle < keys.size(); ++handle) {
    UserState& state = states_[handle];
    if (state.sorted != state.cells.size()) compact(state);
    writer.u64(keys[handle]);
    writer.u64(state.posts);
    writer.u64(state.cells.size());
    for (const std::int64_t cell : state.cells) writer.i64(cell);
  }
  writer.u64(posts_);
  return writer.take();
}

void IncrementalGeolocator::restore_checkpoint(std::string_view payload) {
  if (ids_.size() != 0 || posts_ != 0) {
    throw util::CheckpointError(util::CheckpointErrorCode::kMalformed,
                                "restore_checkpoint on a non-empty geolocator");
  }
  util::ByteReader reader{payload};
  const std::uint32_t version = reader.u32();
  if (version != kCheckpointVersion) {
    throw util::CheckpointError(util::CheckpointErrorCode::kBadVersion,
                                "geolocator payload version " + std::to_string(version));
  }
  // Each user is at least its key, post count and cell count (3 x u64).
  const std::size_t user_count = reader.count(3 * sizeof(std::uint64_t));
  states_.reserve(user_count);
  for (std::size_t i = 0; i < user_count; ++i) {
    const std::uint64_t key = reader.u64();
    if (ids_.intern(key) != i) {
      throw util::CheckpointError(util::CheckpointErrorCode::kMalformed,
                                  "duplicate user id in geolocator payload");
    }
    states_.emplace_back();
    UserState& state = states_.back();
    state.posts = static_cast<std::size_t>(reader.u64());
    const std::size_t cell_count = reader.count(sizeof(std::int64_t));
    if (cell_count > state.posts) {
      throw util::CheckpointError(util::CheckpointErrorCode::kMalformed,
                                  "more distinct cells than posts in geolocator payload");
    }
    state.cells.reserve(cell_count);
    for (std::size_t c = 0; c < cell_count; ++c) {
      const std::int64_t cell = reader.i64();
      if (!state.cells.empty() && cell <= state.cells.back()) {
        throw util::CheckpointError(util::CheckpointErrorCode::kMalformed,
                                    "geolocator cells not sorted-unique");
      }
      state.cells.push_back(cell);
    }
    state.sorted = state.cells.size();  // canonical payloads are compacted
    state.dirty = true;                 // placements recomputed on demand
  }
  posts_ = static_cast<std::size_t>(reader.u64());
  if (!reader.done()) {
    throw util::CheckpointError(util::CheckpointErrorCode::kMalformed,
                                "trailing bytes after geolocator payload");
  }
}

IncrementalGeolocator::Snapshot IncrementalGeolocator::estimate() {
  const obs::ScopedSpan estimate_span("incremental.estimate");
  const obs::Stopwatch watch;
  Snapshot snapshot;
  snapshot.total_users = ids_.size();
  snapshot.posts = posts_;
  snapshot.counts.assign(kZoneCount, 0.0);

  // Visit users in ascending id order — the iteration order of the
  // std::map this replaced — so placement lists and count accumulation
  // stay bit-identical.
  const auto& keys = ids_.keys();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  order.reserve(keys.size());
  for (std::uint32_t handle = 0; handle < keys.size(); ++handle) {
    order.emplace_back(keys[handle], handle);
  }
  std::sort(order.begin(), order.end());

  PlacementResult placement;
  for (const auto& [user, handle] : order) {
    UserState& state = states_[handle];
    if (state.posts < min_posts_) continue;
    if (state.dirty) refresh(user, state);
    if (state.flat) {
      ++snapshot.flat_users;
      continue;
    }
    ++snapshot.active_users;
    snapshot.counts[bin_of_zone(state.placement.zone_hours)] += 1.0;
    placement.users.push_back(state.placement);
  }

  snapshot.distribution = stats::normalize(snapshot.counts);
  if (snapshot.active_users > 0) {
    snapshot.confidence = placement_confidence(placement);
    const MixtureFitOutcome mixture = fit_mixture_to_counts(snapshot.counts, options_);
    snapshot.components = mixture.components;
  }

  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.add(metrics.incremental_snapshots);
  registry.observe(metrics.incremental_snapshot_us, watch.elapsed_us());
  registry.set(metrics.incremental_compaction_backlog,
               static_cast<std::int64_t>(pending_cells_));
  return snapshot;
}

}  // namespace tzgeo::core
