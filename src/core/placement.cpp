#include "core/placement.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <mutex>

#include "core/placement_engine.hpp"
#include "core/placement_metrics.hpp"
#include "core/soa_crowd.hpp"
#include "core/thread_pool.hpp"
#include "obs/pipeline_metrics.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "stats/emd.hpp"
#include "stats/histogram.hpp"

namespace tzgeo::core {

namespace {

constexpr std::size_t kSerialCutoff = 256;  ///< below this, parallelism doesn't pay

/// place_soa over groups [begin, end) of `crowd`, flushed as one batch.
void place_batch(const PlacementEngine& engine, const SoaCrowd& crowd, std::size_t begin,
                 std::size_t end, UserPlacement* out, double* to_uniform, double* zone_counts) {
  const obs::Stopwatch watch;
  PlacementEngine::SoaStats counters;
  engine.place_soa(crowd, begin, end, out, counters, zone_counts, to_uniform);
  const std::size_t last_slot = std::min(end * simd::kLanes, crowd.size());
  detail::record_soa_batch(watch.elapsed_us(), last_slot - begin * simd::kLanes, counters);
}

/// Ablation A's metrics: every user against every zone, keeping the
/// nearest and runner-up with strict <, so the first minimum wins.
[[nodiscard]] std::vector<UserPlacement> scan_crowd(const std::vector<UserProfileEntry>& users,
                                                    const TimeZoneProfiles& zones,
                                                    PlacementMetric metric) {
  std::vector<UserPlacement> placements;
  placements.reserve(users.size());
  for (const UserProfileEntry& entry : users) {
    UserPlacement placement{entry.user, 0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::infinity()};
    for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
      const double d = placement_distance(entry.profile, zones.all()[bin], metric);
      if (d < placement.distance) {
        placement.runner_up_distance = placement.distance;
        placement.distance = d;
        placement.zone_hours = zone_of_bin(bin);
      } else if (d < placement.runner_up_distance) {
        placement.runner_up_distance = d;
      }
    }
    placements.push_back(placement);
  }
  return placements;
}

}  // namespace

void detail::build_soa_crowd(SoaCrowd& crowd, const std::vector<UserProfileEntry>& users) {
  const obs::Stopwatch transpose;
  crowd.build(users);
  record_soa_prepare(SoaCrowdCache::Prepare{false, transpose.elapsed_us()});
}

void detail::place_soa_pooled(const PlacementEngine& engine, const SoaCrowd& crowd,
                              UserPlacement* out, double* to_uniform, double* zone_counts) {
  const std::size_t max_chunks = crowd.size() < kSerialCutoff ? 1 : 0;
  std::mutex counts_mutex;
  ThreadPool::global().for_chunks(crowd.groups(), max_chunks,
                                  [&](std::size_t begin, std::size_t end) {
    std::array<double, kZoneCount> chunk_counts{};
    place_batch(engine, crowd, begin, end, out, to_uniform,
                zone_counts != nullptr ? chunk_counts.data() : nullptr);
    if (zone_counts == nullptr) return;
    // Counts are small integers in doubles — their sum is exact in any
    // merge order, so a mutex (not a deterministic ordering) keeps the
    // result identical to a serial pass.
    const std::lock_guard<std::mutex> lock(counts_mutex);
    for (std::size_t bin = 0; bin < kZoneCount; ++bin) zone_counts[bin] += chunk_counts[bin];
  });
}

void detail::place_soa_serial(const PlacementEngine& engine, const SoaCrowd& crowd,
                              UserPlacement* out, double* to_uniform) {
  place_batch(engine, crowd, 0, crowd.groups(), out, to_uniform, nullptr);
}

double placement_distance(const HourlyProfile& profile, const HourlyProfile& zone_profile,
                          PlacementMetric metric) {
  switch (metric) {
    case PlacementMetric::kEmd:
      return stats::emd_linear(profile.values(), zone_profile.values());
    case PlacementMetric::kCircularEmd:
      // The fixed-24 kernel the group kernels reproduce lane by lane.
      return stats::emd_circular_24(profile.values().data(), zone_profile.values().data());
    case PlacementMetric::kTotalVariation:
      return stats::total_variation(profile.values(), zone_profile.values());
  }
  return std::numeric_limits<double>::infinity();  // unreachable
}

PlacementResult place_crowd(const std::vector<UserProfileEntry>& users,
                            const TimeZoneProfiles& zones, PlacementMetric metric) {
  const obs::ScopedSpan placement_span("placement");
  PlacementResult result;
  result.counts.assign(kZoneCount, 0.0);
  if (metric != PlacementMetric::kCircularEmd) {
    result.users = scan_crowd(users, zones, metric);
    for (const UserPlacement& user : result.users) {
      result.counts[bin_of_zone(user.zone_hours)] += 1.0;
    }
  } else if (!users.empty()) {
    // The prepared SoA crowd (from cache when this crowd was placed
    // before) and the preallocated output are the only setup; the pass
    // itself allocates nothing and scatters into disjoint slots.
    SoaCrowdCache::Prepare prepare;
    const std::shared_ptr<const SoaCrowd> crowd = SoaCrowdCache::global().get(users, &prepare);
    detail::record_soa_prepare(prepare);
    result.users.resize(users.size());
    detail::place_soa_pooled(PlacementEngine{zones}, *crowd, result.users.data(), nullptr,
                             result.counts.data());
  }
  result.distribution = stats::normalize(result.counts);
  detail::record_zone_counts(result.counts);
  return result;
}

PlacementConfidence placement_confidence(const PlacementResult& placement) {
  PlacementConfidence confidence;
  if (placement.users.empty()) return confidence;

  std::vector<double> margins;
  margins.reserve(placement.users.size());
  std::size_t decisive = 0;
  for (const auto& user : placement.users) {
    const double margin = user.margin();
    margins.push_back(margin);
    confidence.mean_margin += margin;
    if (user.distance > 0.0 && margin > 0.1 * user.distance) ++decisive;
    if (user.distance == 0.0 && margin > 0.0) ++decisive;  // exact match
  }
  confidence.mean_margin /= static_cast<double>(margins.size());
  std::sort(margins.begin(), margins.end());
  const std::size_t mid = margins.size() / 2;
  confidence.median_margin = margins.size() % 2 == 1
                                 ? margins[mid]
                                 : 0.5 * (margins[mid - 1] + margins[mid]);
  confidence.decisive_fraction =
      static_cast<double>(decisive) / static_cast<double>(placement.users.size());
  return confidence;
}

}  // namespace tzgeo::core
