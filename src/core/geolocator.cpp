#include "core/geolocator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/parallel.hpp"
#include "obs/trace.hpp"
#include "stats/histogram.hpp"

namespace tzgeo::core {

namespace {

/// Maps a real-valued position on the rotated axis back to a zone offset
/// in [-11, 12].
[[nodiscard]] double rotated_to_zone(double x, std::size_t cut) {
  double bin = static_cast<double>(cut) + x;  // original (fractional) bin
  while (bin >= static_cast<double>(kZoneCount)) bin -= static_cast<double>(kZoneCount);
  while (bin < 0.0) bin += static_cast<double>(kZoneCount);
  return bin + static_cast<double>(kMinZone);
}

[[nodiscard]] std::int32_t nearest_zone_of(double mean_zone) {
  auto zone = static_cast<std::int32_t>(std::lround(mean_zone));
  if (zone < kMinZone) zone += static_cast<std::int32_t>(kZoneCount);
  if (zone > kMaxZone) zone -= static_cast<std::int32_t>(kZoneCount);
  return zone;
}

}  // namespace

std::size_t unwrap_cut(const std::vector<double>& distribution) {
  if (distribution.size() != kZoneCount) {
    throw std::invalid_argument("unwrap_cut: expected 24 zone bins");
  }
  // Place the cut where a small window around the boundary carries the
  // least mass, so no Gaussian component straddles the wrap point.
  double best_mass = std::numeric_limits<double>::infinity();
  std::size_t best_cut = 0;
  for (std::size_t cut = 0; cut < kZoneCount; ++cut) {
    double mass = 0.0;
    for (std::size_t w = 0; w < 5; ++w) {  // the cut bin and 2 on each side
      const std::size_t bin = (cut + kZoneCount - 2 + w) % kZoneCount;
      mass += distribution[bin];
    }
    if (mass < best_mass) {
      best_mass = mass;
      best_cut = cut;
    }
  }
  return best_cut;
}

GeolocationResult geolocate_crowd(const std::vector<UserProfileEntry>& users,
                                  const TimeZoneProfiles& zones,
                                  const GeolocationOptions& options) {
  const obs::ScopedSpan geolocate_span("geolocate");
  GeolocationResult result;

  // The crowd is placed on the input zones either way.  With the flat
  // filter on, the polish's round 0 already placed every user there, so
  // the survivors keep those placements (bit-identical to placing them
  // again); without it, the pooled placement runs on everyone.
  if (options.apply_flat_filter) {
    PolishedPlacement polished = polish_and_place(users, zones, options.metric);
    result.users_filtered_flat = polished.removed;
    result.placement = std::move(polished.placement);
  } else {
    result.placement = place_crowd_parallel(users, zones, options.metric);
  }
  result.users_analyzed = result.placement.users.size();
  if (result.placement.users.empty()) {
    throw std::invalid_argument("geolocate_crowd: no users survive filtering");
  }
  result.confidence = placement_confidence(result.placement);

  MixtureFitOutcome mixture = fit_mixture_to_counts(result.placement.counts, options);
  result.components = std::move(mixture.components);
  result.fitted_curve = std::move(mixture.fitted_curve);
  result.unwrap_cut_bin = mixture.unwrap_cut_bin;

  result.fit_metrics =
      stats::pointwise_fit_metrics(result.placement.distribution, result.fitted_curve);
  result.baseline_metrics =
      stats::shifted_baseline_metrics(result.placement.distribution, result.fitted_curve, 12);
  return result;
}

MixtureFitOutcome fit_mixture_to_counts(const std::vector<double>& counts,
                                        const GeolocationOptions& options) {
  const obs::ScopedSpan gmm_span("gmm");
  if (counts.size() != kZoneCount) {
    throw std::invalid_argument("fit_mixture_to_counts: expected 24 zone bins");
  }
  const std::vector<double> distribution = stats::normalize(counts);
  const std::size_t cut = unwrap_cut(distribution);
  std::vector<double> xs(kZoneCount);
  std::vector<double> weights(kZoneCount);
  for (std::size_t i = 0; i < kZoneCount; ++i) {
    xs[i] = static_cast<double>(i);
    weights[i] = counts[(cut + i) % kZoneCount];
  }

  const stats::GmmFit fit =
      options.auto_components
          ? stats::fit_gmm_auto(xs, weights, options.gmm)
          : stats::fit_gmm(xs, weights, options.fixed_components, options.gmm);

  MixtureFitOutcome outcome;
  outcome.unwrap_cut_bin = cut;
  for (const auto& component : fit.components) {
    GeoComponent geo;
    geo.weight = component.weight;
    geo.sigma = component.sigma;
    geo.mean_zone = rotated_to_zone(component.mean, cut);
    geo.nearest_zone = nearest_zone_of(geo.mean_zone);
    outcome.components.push_back(geo);
  }

  // Mixture density mapped back to the original bin order.
  outcome.fitted_curve.assign(kZoneCount, 0.0);
  const std::vector<double> rotated_curve = fit.sample(kZoneCount);
  for (std::size_t i = 0; i < kZoneCount; ++i) {
    outcome.fitted_curve[(cut + i) % kZoneCount] = rotated_curve[i];
  }
  return outcome;
}

SingleCountryFit fit_single_country(const PlacementResult& placement,
                                    const stats::FitOptions& options) {
  if (placement.distribution.size() != kZoneCount) {
    throw std::invalid_argument("fit_single_country: expected 24 zone bins");
  }
  const std::size_t cut = unwrap_cut(placement.distribution);
  std::vector<double> rotated(kZoneCount);
  for (std::size_t i = 0; i < kZoneCount; ++i) {
    rotated[i] = placement.distribution[(cut + i) % kZoneCount];
  }
  const stats::FitResult fit = stats::fit_gaussian(rotated, options);

  SingleCountryFit result;
  result.converged = fit.converged;
  result.sigma = fit.curve.sigma;
  result.mean_zone = rotated_to_zone(fit.curve.mean, cut);
  result.nearest_zone = nearest_zone_of(result.mean_zone);
  result.fitted_curve.assign(kZoneCount, 0.0);
  for (std::size_t i = 0; i < kZoneCount; ++i) {
    result.fitted_curve[(cut + i) % kZoneCount] = fit.curve(static_cast<double>(i));
  }
  result.fit_metrics =
      stats::pointwise_fit_metrics(placement.distribution, result.fitted_curve);
  return result;
}

}  // namespace tzgeo::core
