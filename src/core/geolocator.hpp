// Crowd geolocation: Gaussian / Gaussian-mixture fitting of placement
// distributions (Sections IV-A and IV-B).
//
// Single-region crowds place as a Gaussian centered on the crowd's time
// zone (sigma ~= 2.5); multi-region crowds place as a Gaussian mixture
// whose component means reveal the constituent zones.  The zone axis is
// circular (UTC-11 wraps to UTC+12), so the fitter first rotates the
// distribution to put the emptiest region at the boundary ("unwrapping"),
// fits on the unwrapped line, and maps the component means back.
#pragma once

#include <cstdint>
#include <vector>

#include "core/flat_filter.hpp"
#include "core/placement.hpp"
#include "stats/curve_fit.hpp"
#include "stats/fit_metrics.hpp"
#include "stats/gmm.hpp"

namespace tzgeo::core {

/// One uncovered crowd component.
struct GeoComponent {
  double mean_zone = 0.0;        ///< real-valued UTC offset of the center
  double sigma = 0.0;            ///< spread in hours
  double weight = 0.0;           ///< share of the crowd
  std::int32_t nearest_zone = 0; ///< mean rounded to a whole zone
};

/// Geolocation tuning.
struct GeolocationOptions {
  stats::GmmOptions gmm{};        ///< EM settings (sigma seed 2.5, BIC, ...)
  bool auto_components = true;    ///< BIC-select the component count
  int fixed_components = 1;       ///< used when auto_components is false
  bool apply_flat_filter = true;  ///< run the Section IV-C polish first
};

/// Full geolocation outcome.
struct GeolocationResult {
  PlacementResult placement;
  std::vector<GeoComponent> components;  ///< sorted by descending weight
  /// Mixture density sampled at the 24 zone bins (same normalization as
  /// placement.distribution) — the curve drawn in Figures 9-13.
  std::vector<double> fitted_curve;
  stats::PointwiseFitMetrics fit_metrics;       ///< Table II row
  stats::PointwiseFitMetrics baseline_metrics;  ///< 12 h-shifted baseline
  PlacementConfidence confidence;               ///< per-user margin summary
  std::size_t users_analyzed = 0;
  std::size_t users_filtered_flat = 0;
  std::size_t unwrap_cut_bin = 0;  ///< rotation applied before fitting
};

/// Geolocates a profiled crowd against the zone profiles.
[[nodiscard]] GeolocationResult geolocate_crowd(const std::vector<UserProfileEntry>& users,
                                                const TimeZoneProfiles& zones,
                                                const GeolocationOptions& options = {});

/// Mixture fit of an existing per-zone count histogram (24 bins).  This is
/// the tail of geolocate_crowd, exposed so the bootstrap can refit
/// resampled histograms without re-running placement.
struct MixtureFitOutcome {
  std::vector<GeoComponent> components;  ///< sorted by descending weight
  std::vector<double> fitted_curve;      ///< density over the 24 zone bins
  std::size_t unwrap_cut_bin = 0;
};
[[nodiscard]] MixtureFitOutcome fit_mixture_to_counts(const std::vector<double>& counts,
                                                      const GeolocationOptions& options = {});

/// Single-Gaussian fit of an existing placement distribution — the
/// Figures 3-5 experiment (known single-region crowds).
struct SingleCountryFit {
  double mean_zone = 0.0;
  double sigma = 0.0;
  std::int32_t nearest_zone = 0;
  std::vector<double> fitted_curve;  ///< over the 24 zone bins
  stats::PointwiseFitMetrics fit_metrics;
  bool converged = false;
};
[[nodiscard]] SingleCountryFit fit_single_country(const PlacementResult& placement,
                                                  const stats::FitOptions& options = {});

/// The rotation used to unwrap a circular placement distribution: the
/// index of the bin chosen as the cut point (exposed for tests).
[[nodiscard]] std::size_t unwrap_cut(const std::vector<double>& distribution);

}  // namespace tzgeo::core
