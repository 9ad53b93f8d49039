#include "core/geolocator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/pipeline_metrics.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

[[nodiscard]] HourlyProfile canonical_shape() {
  std::vector<double> counts(24, 0.01);
  counts[8] = 0.12;
  counts[9] = 0.18;
  counts[10] = 0.12;
  counts[19] = 0.3;
  counts[20] = 0.4;
  counts[21] = 0.3;
  counts[22] = 0.18;
  return HourlyProfile::from_counts(counts);
}

[[nodiscard]] TimeZoneProfiles canonical_zones() { return TimeZoneProfiles{canonical_shape()}; }

/// A crowd around `zone` whose members are chronotype-shifted copies.
[[nodiscard]] std::vector<UserProfileEntry> crowd_at(std::int32_t zone, std::size_t size,
                                                     std::uint64_t seed,
                                                     const TimeZoneProfiles& zones) {
  util::Rng rng{seed};
  std::vector<UserProfileEntry> users;
  users.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    // Integer chronotype shift approximating sigma ~ 2.
    const auto delta = static_cast<std::int32_t>(std::lround(rng.normal(0.0, 2.0)));
    std::int32_t z = zone - delta;
    while (z < kMinZone) z += 24;
    while (z > kMaxZone) z -= 24;
    users.push_back(
        UserProfileEntry{static_cast<std::uint64_t>(i), 60, zones.zone_profile(z)});
  }
  return users;
}

TEST(UnwrapCut, PicksEmptyRegion) {
  std::vector<double> distribution(24, 0.0);
  distribution[11] = 0.6;  // zone 0
  distribution[12] = 0.4;
  const std::size_t cut = unwrap_cut(distribution);
  // The cut must be far from the mass at bins 11-12.
  const std::size_t distance = std::min((cut + 24 - 11) % 24, (11 + 24 - cut) % 24);
  EXPECT_GE(distance, 6u);
}

TEST(UnwrapCut, Validates) {
  EXPECT_THROW((void)unwrap_cut(std::vector<double>(23, 0.0)), std::invalid_argument);
}

TEST(FitSingleCountry, RecoversCenterAndSigma) {
  // Synthetic Gaussian placement distribution centered on UTC+1.
  std::vector<double> distribution(24, 0.0);
  for (std::size_t bin = 0; bin < 24; ++bin) {
    const double x = static_cast<double>(zone_of_bin(bin));
    distribution[bin] = std::exp(-0.5 * (x - 1.0) * (x - 1.0) / (2.5 * 2.5));
  }
  double total = 0.0;
  for (const double v : distribution) total += v;
  for (double& v : distribution) v /= total;

  PlacementResult placement;
  placement.distribution = distribution;
  placement.counts = distribution;
  const SingleCountryFit fit = fit_single_country(placement);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.mean_zone, 1.0, 0.2);
  EXPECT_EQ(fit.nearest_zone, 1);
  EXPECT_NEAR(fit.sigma, 2.5, 0.3);
  EXPECT_LT(fit.fit_metrics.average, 0.01);
}

TEST(FitSingleCountry, WorksAcrossTheWrapBoundary) {
  // Center at UTC+11/+12/-11: the Gaussian straddles the array edge.
  std::vector<double> distribution(24, 0.001);
  distribution[bin_of_zone(11)] = 0.3;
  distribution[bin_of_zone(12)] = 0.4;
  distribution[bin_of_zone(-11)] = 0.3;
  PlacementResult placement;
  placement.distribution = distribution;
  placement.counts = distribution;
  const SingleCountryFit fit = fit_single_country(placement);
  // Mean near +12 (or equivalently just past it).
  const double wrapped = fit.mean_zone > 0 ? fit.mean_zone : fit.mean_zone + 24.0;
  EXPECT_NEAR(wrapped, 12.0, 1.0);
}

TEST(FitSingleCountry, ValidatesBinCount) {
  PlacementResult placement;
  placement.distribution = std::vector<double>(10, 0.1);
  EXPECT_THROW(fit_single_country(placement), std::invalid_argument);
}

TEST(GeolocateCrowd, SingleRegionRecovery) {
  const auto zones = canonical_zones();
  const auto users = crowd_at(3, 300, 11, zones);
  const GeolocationResult result = geolocate_crowd(users, zones);
  ASSERT_EQ(result.components.size(), 1u);
  EXPECT_EQ(result.components[0].nearest_zone, 3);
  EXPECT_NEAR(result.components[0].mean_zone, 3.0, 0.5);
  EXPECT_NEAR(result.components[0].sigma, 2.0, 0.8);
  EXPECT_EQ(result.users_analyzed, 300u);
  EXPECT_LT(result.fit_metrics.average, result.baseline_metrics.average);
}

TEST(GeolocateCrowd, LeavesRequiredPlacementCountersNonZero) {
  // tools/tzgeo_obs_check requires these placement counters in every
  // pipeline dump.  A geolocate_crowd run must move each of them, so the
  // schema gate cannot pass on a counter that always reads 0.
  if (obs::kDisabled) GTEST_SKIP() << "obs layer compiled out (TZGEO_OBS_DISABLED)";
  const std::vector<std::string> required = {"tzgeo_placement_users_total",
                                             "tzgeo_placement_zones_pruned_vectorized_total"};
  (void)obs::PipelineMetrics::get();  // registers the inventory
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  std::vector<std::uint64_t> before;
  for (const std::string& name : required) {
    const obs::MetricId id = registry.find(name);
    ASSERT_NE(id, obs::kInvalidMetric) << name;
    before.push_back(registry.counter_value(id));
  }
  const auto zones = canonical_zones();
  (void)geolocate_crowd(crowd_at(3, 300, 11, zones), zones);
  for (std::size_t i = 0; i < required.size(); ++i) {
    EXPECT_GT(registry.counter_value(registry.find(required[i])), before[i]) << required[i];
  }
}

TEST(GeolocateCrowd, TwoRegionRecoveryWithWeights) {
  const auto zones = canonical_zones();
  auto users = crowd_at(-6, 140, 21, zones);
  const auto europe = crowd_at(1, 260, 22, zones);
  users.insert(users.end(), europe.begin(), europe.end());
  const GeolocationResult result = geolocate_crowd(users, zones);
  ASSERT_EQ(result.components.size(), 2u);
  EXPECT_NEAR(result.components[0].mean_zone, 1.0, 1.0);
  EXPECT_NEAR(result.components[0].weight, 0.65, 0.08);
  EXPECT_NEAR(result.components[1].mean_zone, -6.0, 1.0);
  EXPECT_NEAR(result.components[1].weight, 0.35, 0.08);
}

TEST(GeolocateCrowd, FlatUsersFilteredBeforeFitting) {
  const auto zones = canonical_zones();
  auto users = crowd_at(5, 100, 31, zones);
  for (std::uint64_t i = 0; i < 20; ++i) {
    users.push_back(UserProfileEntry{1000 + i, 800, HourlyProfile{}});
  }
  const GeolocationResult result = geolocate_crowd(users, zones);
  EXPECT_EQ(result.users_filtered_flat, 20u);
  EXPECT_EQ(result.users_analyzed, 100u);
  ASSERT_FALSE(result.components.empty());
  EXPECT_EQ(result.components[0].nearest_zone, 5);
}

TEST(GeolocateCrowd, FlatFilterCanBeDisabled) {
  const auto zones = canonical_zones();
  auto users = crowd_at(5, 50, 41, zones);
  users.push_back(UserProfileEntry{999, 800, HourlyProfile{}});
  GeolocationOptions options;
  options.apply_flat_filter = false;
  const GeolocationResult result = geolocate_crowd(users, zones, options);
  EXPECT_EQ(result.users_filtered_flat, 0u);
  EXPECT_EQ(result.users_analyzed, 51u);
}

TEST(GeolocateCrowd, FixedComponentCount) {
  const auto zones = canonical_zones();
  const auto users = crowd_at(0, 120, 51, zones);
  GeolocationOptions options;
  options.auto_components = false;
  options.fixed_components = 2;
  options.gmm.merge_distance = 0.0;  // keep both components
  const GeolocationResult result = geolocate_crowd(users, zones, options);
  EXPECT_EQ(result.components.size(), 2u);
}

TEST(GeolocateCrowd, EmptyCrowdThrows) {
  const auto zones = canonical_zones();
  EXPECT_THROW(geolocate_crowd({}, zones), std::invalid_argument);
}

TEST(GeolocateCrowd, FittedCurveMatchesDistributionScale) {
  const auto zones = canonical_zones();
  const auto users = crowd_at(-3, 200, 61, zones);
  const GeolocationResult result = geolocate_crowd(users, zones);
  double curve_mass = 0.0;
  for (const double v : result.fitted_curve) curve_mass += v;
  // The mixture density integrates to ~1 over the 24 bins.
  EXPECT_NEAR(curve_mass, 1.0, 0.15);
  EXPECT_EQ(result.fitted_curve.size(), kZoneCount);
}

TEST(GeolocateCrowd, BaselineMuchWorseThanFit) {
  const auto zones = canonical_zones();
  const auto users = crowd_at(2, 250, 71, zones);
  const GeolocationResult result = geolocate_crowd(users, zones);
  EXPECT_GT(result.baseline_metrics.average, 3.0 * result.fit_metrics.average);
}

// Sweep: single-region crowds anywhere on the planet must be recovered,
// including zones whose Gaussian straddles the wrap boundary.
class GeolocateZoneSweep : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(GeolocateZoneSweep, RecoversCrowdZone) {
  const std::int32_t zone = GetParam();
  const auto zones = canonical_zones();
  const auto users = crowd_at(zone, 200, static_cast<std::uint64_t>(zone + 100), zones);
  const GeolocationResult result = geolocate_crowd(users, zones);
  ASSERT_FALSE(result.components.empty());
  // Allow a one-zone slack for discretization at extreme wrap positions.
  std::int32_t diff = result.components[0].nearest_zone - zone;
  if (diff > 12) diff -= 24;
  if (diff < -12) diff += 24;
  EXPECT_LE(std::abs(diff), 1) << "zone=" << zone;
}

INSTANTIATE_TEST_SUITE_P(AllZones, GeolocateZoneSweep, ::testing::Range(-11, 13));

}  // namespace
}  // namespace tzgeo::core
