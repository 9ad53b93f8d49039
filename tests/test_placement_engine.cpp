// PlacementEngine and place_crowd against the exhaustive-scan references
// of placement_oracle.hpp: the pooled and the serial SoA pass must match
// the scan bit for bit, the kernel's lower-bound pruning must never change
// a result, and the ablation metrics' scan must match its own reference.
#include "core/placement_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "core/placement.hpp"
#include "core/simd/simd.hpp"
#include "core/soa_crowd.hpp"
#include "placement_oracle.hpp"
#include "stats/emd.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

constexpr PlacementMetric kAllMetrics[] = {
    PlacementMetric::kEmd, PlacementMetric::kCircularEmd, PlacementMetric::kTotalVariation};

[[nodiscard]] HourlyProfile canonical_shape() {
  std::vector<double> counts(24, 0.01);
  counts[9] = 0.2;
  counts[20] = 0.5;
  counts[21] = 0.3;
  return HourlyProfile::from_counts(counts);
}

[[nodiscard]] std::vector<UserProfileEntry> random_crowd(std::size_t size, std::uint64_t seed,
                                                         const TimeZoneProfiles& zones) {
  util::Rng rng{seed};
  std::vector<UserProfileEntry> users;
  users.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    std::vector<double> noisy =
        zones.zone_profile(static_cast<std::int32_t>(rng.uniform_int(-11, 12))).values();
    for (double& v : noisy) v = std::max(0.0, v + rng.normal(0.0, 0.01));
    users.push_back(
        UserProfileEntry{static_cast<std::uint64_t>(i), 40, HourlyProfile::from_counts(noisy)});
  }
  return users;
}

/// The ablation metrics' reference: an exhaustive scan of
/// placement_distance, strict < so the first minimum wins.
[[nodiscard]] UserPlacement scan(const UserProfileEntry& entry, const TimeZoneProfiles& zones,
                                 PlacementMetric metric) {
  if (metric == PlacementMetric::kCircularEmd) {
    return oracle::place(entry.user, entry.profile, zones);
  }
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
  return placement;
}

void expect_matches_scan(const PlacementResult& got, const std::vector<UserProfileEntry>& users,
                         const TimeZoneProfiles& zones, PlacementMetric metric) {
  ASSERT_EQ(got.users.size(), users.size());
  std::vector<double> counts(kZoneCount, 0.0);
  for (std::size_t i = 0; i < users.size(); ++i) {
    const UserPlacement want = scan(users[i], zones, metric);
    EXPECT_EQ(got.users[i].user, want.user);
    EXPECT_EQ(got.users[i].zone_hours, want.zone_hours);
    EXPECT_EQ(got.users[i].distance, want.distance);
    EXPECT_EQ(got.users[i].runner_up_distance, want.runner_up_distance);
    counts[bin_of_zone(want.zone_hours)] += 1.0;
  }
  EXPECT_EQ(got.counts, counts);
}

/// place_soa over a fresh transpose of `users`, with distances to uniform.
[[nodiscard]] std::vector<UserPlacement> place_all(const PlacementEngine& engine,
                                                   const std::vector<UserProfileEntry>& users,
                                                   std::vector<double>* to_uniform = nullptr) {
  SoaCrowd crowd;
  crowd.build(users);
  std::vector<UserPlacement> out(users.size());
  if (to_uniform != nullptr) to_uniform->assign(users.size(), -1.0);
  PlacementEngine::SoaStats counters;
  engine.place_soa(crowd, 0, crowd.groups(), out.data(), counters, nullptr,
                   to_uniform != nullptr ? to_uniform->data() : nullptr);
  return out;
}

TEST(PlacementEngine, SerialEngineAndPooledBitIdenticalAllMetrics) {
  // place_crowd (pooled SoA pass for circular EMD, a plain scan for the
  // ablation metrics) and a single serial place_soa pass both reproduce
  // the exhaustive scan.
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(600, 11, zones);
  for (const PlacementMetric metric : kAllMetrics) {
    expect_matches_scan(place_crowd(users, zones, metric), users, zones, metric);
  }
  const std::vector<UserPlacement> serial = place_all(PlacementEngine{zones}, users);
  for (std::size_t i = 0; i < users.size(); ++i) {
    const UserPlacement want = oracle::place(users[i].user, users[i].profile, zones);
    EXPECT_EQ(serial[i].zone_hours, want.zone_hours);
    EXPECT_EQ(serial[i].distance, want.distance);
    EXPECT_EQ(serial[i].runner_up_distance, want.runner_up_distance);
  }
}

TEST(PlacementEngine, DistanceToZoneMatchesPairwiseKernel) {
  // The row kernel against each zone's CDF row equals the pairwise
  // circular kernel placement_distance uses.
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(32, 12, zones);
  SoaCrowd crowd;
  crowd.build(users);
  const simd::KernelTable& kernels = simd::kernels();
  for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
    double row_cdf[kProfileBins];
    stats::prefix_sums_24(zones.all()[bin].values().data(), row_cdf);
    for (std::size_t g = 0; g < crowd.groups(); ++g) {
      alignas(64) double lanes[simd::kLanes];
      kernels.row_circular(crowd.planes(), crowd.stride(), g * simd::kLanes, row_cdf, lanes);
      for (std::size_t l = 0; l < simd::kLanes && g * simd::kLanes + l < crowd.size(); ++l) {
        const UserProfileEntry& entry = users[crowd.index_of_slot(g * simd::kLanes + l)];
        EXPECT_EQ(lanes[l], placement_distance(entry.profile, zones.all()[bin],
                                               PlacementMetric::kCircularEmd));
      }
    }
  }
}

TEST(PlacementEngine, PruningMatchesBruteForceBestAndRunnerUp) {
  // The group kernel skips zones whose lower bound clears the running
  // runner-up.  The skipped evaluations must never change the outcome:
  // compare against an unpruned brute-force scan over all 24 distances.
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(300, 13, zones);
  for (const PlacementMetric metric : kAllMetrics) {
    const PlacementResult placed = place_crowd(users, zones, metric);
    for (std::size_t i = 0; i < users.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      double runner_up = std::numeric_limits<double>::infinity();
      std::int32_t best_zone = 0;
      for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
        const double d = placement_distance(users[i].profile, zones.all()[bin], metric);
        if (d < best) {
          runner_up = best;
          best = d;
          best_zone = zone_of_bin(bin);
        } else if (d < runner_up) {
          runner_up = d;
        }
      }
      EXPECT_EQ(placed.users[i].zone_hours, best_zone);
      EXPECT_DOUBLE_EQ(placed.users[i].distance, best);
      EXPECT_DOUBLE_EQ(placed.users[i].runner_up_distance, runner_up);
    }
  }
}

TEST(PlacementEngine, NearestDistanceEqualsMinimumOverZones) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(200, 14, zones);
  for (const PlacementMetric metric : kAllMetrics) {
    const PlacementResult placed = place_crowd(users, zones, metric);
    for (std::size_t i = 0; i < users.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
        best = std::min(best, placement_distance(users[i].profile, zones.all()[bin], metric));
      }
      EXPECT_EQ(placed.users[i].distance, best);
    }
  }
}

TEST(PlacementEngine, DistanceToUniformMatchesPairwise) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(32, 15, zones);
  const HourlyProfile uniform;
  std::vector<double> to_uniform;
  (void)place_all(PlacementEngine{zones}, users, &to_uniform);
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(to_uniform[i],
              placement_distance(users[i].profile, uniform, PlacementMetric::kCircularEmd));
  }
}

TEST(PlacementEngine, EmptyOneUserAndOddSizedCrowds) {
  const TimeZoneProfiles zones{canonical_shape()};
  for (const PlacementMetric metric : kAllMetrics) {
    expect_matches_scan(place_crowd({}, zones, metric), {}, zones, metric);
    for (const std::size_t size : {1u, 7u, 257u}) {
      const auto users = random_crowd(size, 16 + size, zones);
      expect_matches_scan(place_crowd(users, zones, metric), users, zones, metric);
    }
  }
}

TEST(PlacementEngine, SurvivesSourceZonesDestruction) {
  // The engine snapshots the zone profiles; it must stay valid after the
  // TimeZoneProfiles it was built from goes away.
  std::unique_ptr<PlacementEngine> engine;
  UserPlacement expected;
  const std::vector<UserProfileEntry> probe{UserProfileEntry{1, 40, canonical_shape()}};
  {
    const TimeZoneProfiles zones{canonical_shape()};
    engine = std::make_unique<PlacementEngine>(zones);
    expected = oracle::place(1, probe.front().profile, zones);
  }
  const UserPlacement placed = place_all(*engine, probe).front();
  EXPECT_EQ(placed.zone_hours, expected.zone_hours);
  EXPECT_EQ(placed.distance, expected.distance);
  EXPECT_EQ(placed.runner_up_distance, expected.runner_up_distance);
}

TEST(PlacementConfidenceMedian, OddCountUsesCentralElement) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(5, 21, zones);
  const PlacementResult placement = place_crowd(users, zones);
  std::vector<double> margins;
  for (const UserPlacement& u : placement.users) margins.push_back(u.margin());
  std::sort(margins.begin(), margins.end());
  EXPECT_DOUBLE_EQ(placement_confidence(placement).median_margin, margins[2]);
}

TEST(PlacementConfidenceMedian, EvenCountUsesMidpointOfCentralPair) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(6, 22, zones);
  const PlacementResult placement = place_crowd(users, zones);
  std::vector<double> margins;
  for (const UserPlacement& u : placement.users) margins.push_back(u.margin());
  std::sort(margins.begin(), margins.end());
  EXPECT_DOUBLE_EQ(placement_confidence(placement).median_margin,
                   0.5 * (margins[2] + margins[3]));
}

}  // namespace
}  // namespace tzgeo::core
