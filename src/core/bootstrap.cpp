#include "core/bootstrap.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/report.hpp"
#include "core/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace tzgeo::core {

namespace {

/// Circular distance between two zone offsets, in hours.
[[nodiscard]] double circular_distance(double a, double b) noexcept {
  double d = std::abs(a - b);
  while (d > kHalfDayHoursF) d = std::abs(d - kHoursPerDayF);
  return d;
}

/// Percentile of a sorted sample (nearest-rank).
[[nodiscard]] double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::clamp(q * static_cast<double>(sorted.size() - 1), 0.0,
                 static_cast<double>(sorted.size() - 1)));
  return sorted[rank];
}

}  // namespace

BootstrapResult bootstrap_geolocation(const std::vector<UserProfileEntry>& users,
                                      const TimeZoneProfiles& zones,
                                      const GeolocationOptions& options,
                                      const BootstrapOptions& bootstrap) {
  if (bootstrap.resamples < 1) {
    throw std::invalid_argument("bootstrap_geolocation: resamples must be >= 1");
  }
  if (bootstrap.confidence <= 0.0 || bootstrap.confidence >= 1.0) {
    throw std::invalid_argument("bootstrap_geolocation: confidence in (0, 1)");
  }

  BootstrapResult result;
  result.point = geolocate_crowd(users, zones, options);
  result.resamples = bootstrap.resamples;

  const std::vector<UserPlacement>& placed = result.point.placement.users;
  const auto n = static_cast<std::int64_t>(placed.size());
  if (n == 0) return result;

  // Per point-component accumulators across resamples.
  std::vector<std::vector<double>> means(result.point.components.size());
  std::vector<std::vector<double>> weights(result.point.components.size());
  int same_count = 0;

  // Draw every resampled histogram serially (the RNG stream is identical
  // to the former all-serial loop), then refit the mixtures — the actual
  // cost — across the thread pool, one chunk per refit: EM iteration
  // counts vary widely between resamples, so workers claim refits one at a
  // time instead of each taking a fixed share.  The merge below runs in
  // resample order, so results match the serial path exactly.
  const auto resamples = static_cast<std::size_t>(bootstrap.resamples);
  std::vector<std::vector<double>> histograms(resamples);
  util::Rng rng{bootstrap.seed};
  for (std::size_t r = 0; r < resamples; ++r) {
    histograms[r].assign(kZoneCount, 0.0);
    for (std::int64_t i = 0; i < n; ++i) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      histograms[r][bin_of_zone(placed[pick].zone_hours)] += 1.0;
    }
  }

  std::vector<MixtureFitOutcome> refits(resamples);
  ThreadPool::global().for_chunks(resamples, resamples, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      refits[r] = fit_mixture_to_counts(histograms[r], options);
    }
  });

  for (std::size_t r = 0; r < resamples; ++r) {
    const MixtureFitOutcome& refit = refits[r];
    if (refit.components.size() == result.point.components.size()) ++same_count;

    // Greedy match: every resampled component attaches to the nearest
    // point component within 2 h (one zone of slack).
    for (const auto& component : refit.components) {
      std::size_t best = means.size();
      double best_distance = 2.0;
      for (std::size_t c = 0; c < result.point.components.size(); ++c) {
        const double d =
            circular_distance(component.mean_zone, result.point.components[c].mean_zone);
        if (d < best_distance) {
          best_distance = d;
          best = c;
        }
      }
      if (best < means.size()) {
        means[best].push_back(component.mean_zone);
        weights[best].push_back(component.weight);
      }
    }
  }

  result.component_count_stability =
      static_cast<double>(same_count) / static_cast<double>(bootstrap.resamples);

  const double tail = (1.0 - bootstrap.confidence) / 2.0;
  for (std::size_t c = 0; c < result.point.components.size(); ++c) {
    ComponentInterval interval;
    interval.point = result.point.components[c];
    std::sort(means[c].begin(), means[c].end());
    std::sort(weights[c].begin(), weights[c].end());
    interval.mean_lo = percentile(means[c], tail);
    interval.mean_hi = percentile(means[c], 1.0 - tail);
    interval.weight_lo = percentile(weights[c], tail);
    interval.weight_hi = percentile(weights[c], 1.0 - tail);
    interval.support =
        static_cast<double>(means[c].size()) / static_cast<double>(bootstrap.resamples);
    result.components.push_back(interval);
  }
  return result;
}

std::string describe_bootstrap(const std::string& caption, const BootstrapResult& result) {
  std::string out = caption + "\n";
  out += "  resamples: " + std::to_string(result.resamples) +
         ", component-count stability: " +
         util::format_fixed(result.component_count_stability * 100.0, 0) + "%\n";
  for (const auto& interval : result.components) {
    out += "    - " + zone_label(interval.point.nearest_zone) + ": center " +
           util::format_fixed(interval.point.mean_zone, 2) + "h [" +
           util::format_fixed(interval.mean_lo, 2) + ", " +
           util::format_fixed(interval.mean_hi, 2) + "], weight " +
           util::format_fixed(interval.point.weight * 100.0, 1) + "% [" +
           util::format_fixed(interval.weight_lo * 100.0, 1) + ", " +
           util::format_fixed(interval.weight_hi * 100.0, 1) + "], support " +
           util::format_fixed(interval.support * 100.0, 0) + "%\n";
  }
  return out;
}

}  // namespace tzgeo::core
