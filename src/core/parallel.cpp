#include "core/parallel.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <mutex>
#include <thread>

#include "core/placement_engine.hpp"
#include "core/placement_metrics.hpp"
#include "core/soa_crowd.hpp"
#include "core/thread_pool.hpp"
#include "obs/pipeline_metrics.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "stats/histogram.hpp"

namespace tzgeo::core {

namespace {

constexpr std::size_t kSerialCutoff = 256;  ///< below this, parallelism doesn't pay

}  // namespace

void detail::build_soa_crowd(SoaCrowd& crowd, const std::vector<UserProfileEntry>& users,
                             const PlacementEngine& engine) {
  const obs::Stopwatch transpose;
  crowd.build(users, engine.soa_planes());
  record_soa_prepare(SoaCrowdCache::Prepare{false, transpose.elapsed_us()});
}

void detail::place_soa_pooled(const PlacementEngine& engine, const SoaCrowd& crowd,
                              UserPlacement* out, double* to_uniform) {
  const std::size_t max_chunks = crowd.size() < kSerialCutoff ? 1 : 0;
  ThreadPool::global().for_chunks(crowd.groups(), max_chunks,
                                  [&](std::size_t begin, std::size_t end) {
    const obs::Stopwatch watch;
    PlacementEngine::SoaStats counters;
    engine.place_soa(crowd, begin, end, out, counters, nullptr, to_uniform);
    const std::size_t last_slot = std::min(end * simd::kLanes, crowd.size());
    record_soa_batch(watch.elapsed_us(), last_slot - begin * simd::kLanes, counters);
  });
}

PlacementResult place_crowd_parallel(const std::vector<UserProfileEntry>& users,
                                     const TimeZoneProfiles& zones, PlacementMetric metric,
                                     std::size_t threads) {
  const obs::ScopedSpan placement_span("placement");
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();

  ThreadPool& pool = ThreadPool::global();
  if (threads == 0) {
    // The caller participates alongside the pool workers, but never shard
    // wider than the machine: on a single-core host pool.size() + 1 == 2
    // would split the crowd into two shards that time-share one core —
    // pure context-switch overhead over the serial path.
    const std::size_t hardware = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    threads = std::min(pool.size() + 1, hardware);
  }

  PlacementResult result;
  if (users.size() < kSerialCutoff || threads == 1) {
    result = place_crowd(users, zones, metric);
  } else {
    const PlacementEngine engine{zones, metric};
    // Shared setup: the prepared SoA crowd (from cache when this crowd was
    // placed before) and the preallocated output.  After this point the
    // shards allocate nothing — each works a group range of the shared
    // planes and scatters into disjoint slots of `result.users`.
    SoaCrowdCache::Prepare prepare;
    const std::shared_ptr<const SoaCrowd> crowd =
        SoaCrowdCache::global().get(users, engine.soa_planes(), &prepare);
    detail::record_soa_prepare(prepare);
    result.users.resize(users.size());
    std::vector<UserPlacement>& placements = result.users;

    // Shards split the GROUP range, never a group, so every kernel call
    // sees the same 8 lanes regardless of thread count — which, with
    // results scattered by original index, keeps any sharding
    // bit-identical to the serial pass over groups [0, groups).
    result.counts.assign(kZoneCount, 0.0);
    std::mutex counts_mutex;
    pool.for_chunks(crowd->groups(), threads, [&](std::size_t begin, std::size_t end) {
      // One chunk is one shard batch: accumulate locally, flush once —
      // the hot loop pays zero atomic traffic per user.
      const obs::ScopedSpan batch_span("placement.batch");
      const obs::Stopwatch watch;
      PlacementEngine::SoaStats counters;
      std::array<double, kZoneCount> shard_counts{};
      engine.place_soa(*crowd, begin, end, placements.data(), counters,
                       shard_counts.data());
      const std::size_t last_slot = std::min(end * simd::kLanes, crowd->size());
      detail::record_soa_batch(watch.elapsed_us(), last_slot - begin * simd::kLanes,
                               counters);
      registry.add(metrics.placement_shards);
      // Shard counts are small integers in doubles — their sum is exact in
      // any merge order, so a mutex (not a deterministic ordering) suffices
      // to keep the result identical to the serial pass.
      const std::lock_guard<std::mutex> lock(counts_mutex);
      for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
        result.counts[bin] += shard_counts[bin];
      }
    });

    result.distribution = stats::normalize(result.counts);
  }

  for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
    registry.add(metrics.placement_zone[bin],
                 static_cast<std::uint64_t>(result.counts[bin]));
  }
  return result;
}

}  // namespace tzgeo::core
