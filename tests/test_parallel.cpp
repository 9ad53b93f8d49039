// place_crowd's pooled SoA pass: any split of the group range across pool
// chunks or shards must place bit-identically to one serial pass.
#include <gtest/gtest.h>

#include <limits>

#include "core/placement.hpp"
#include "core/placement_engine.hpp"
#include "core/soa_crowd.hpp"
#include "core/thread_pool.hpp"
#include "stats/histogram.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

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
    // Noisy profiles across all zones, so ties and near-ties occur.
    std::vector<double> noisy =
        zones.zone_profile(static_cast<std::int32_t>(rng.uniform_int(-11, 12))).values();
    for (double& v : noisy) v = std::max(0.0, v + rng.normal(0.0, 0.01));
    users.push_back(
        UserProfileEntry{static_cast<std::uint64_t>(i), 40, HourlyProfile::from_counts(noisy)});
  }
  return users;
}

void expect_identical(const PlacementResult& a, const PlacementResult& b) {
  ASSERT_EQ(a.users.size(), b.users.size());
  for (std::size_t i = 0; i < a.users.size(); ++i) {
    EXPECT_EQ(a.users[i].user, b.users[i].user);
    EXPECT_EQ(a.users[i].zone_hours, b.users[i].zone_hours);
    EXPECT_DOUBLE_EQ(a.users[i].distance, b.users[i].distance);
    EXPECT_DOUBLE_EQ(a.users[i].runner_up_distance, b.users[i].runner_up_distance);
  }
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.distribution, b.distribution);
}

/// One serial place_soa pass over every group: the reference the pooled
/// pass must reproduce.
[[nodiscard]] PlacementResult serial_pass(const std::vector<UserProfileEntry>& users,
                                          const TimeZoneProfiles& zones) {
  PlacementResult result;
  result.counts.assign(kZoneCount, 0.0);
  result.users.resize(users.size());
  SoaCrowd crowd;
  crowd.build(users);
  PlacementEngine::SoaStats counters;
  PlacementEngine{zones}.place_soa(crowd, 0, crowd.groups(), result.users.data(), counters,
                                   result.counts.data());
  result.distribution = stats::normalize(result.counts);
  return result;
}

TEST(ParallelPlacement, BitIdenticalToSerialLargeCrowd) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(1200, 3, zones);
  expect_identical(serial_pass(users, zones), place_crowd(users, zones));
}

TEST(ParallelPlacement, SmallCrowdUsesSerialPathAndMatches) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(50, 4, zones);
  expect_identical(serial_pass(users, zones), place_crowd(users, zones));
}

TEST(ParallelPlacement, ExplicitThreadCounts) {
  // Every split of the group range into two shards, and even splits into
  // 3, 8 and 64 shards, place exactly like one pass over all groups.
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(700, 5, zones);
  const PlacementResult serial = serial_pass(users, zones);
  const PlacementEngine engine{zones};
  SoaCrowd crowd;
  crowd.build(users);
  const std::size_t groups = crowd.groups();
  std::vector<std::vector<std::size_t>> splits;
  for (std::size_t cut = 0; cut <= groups; ++cut) splits.push_back({0, cut, groups});
  for (const std::size_t shards : {3u, 8u, 64u}) {
    std::vector<std::size_t> bounds;
    for (std::size_t s = 0; s <= shards; ++s) bounds.push_back(groups * s / shards);
    splits.push_back(bounds);
  }
  for (const std::vector<std::size_t>& bounds : splits) {
    PlacementResult sharded;
    sharded.users.resize(users.size());
    sharded.counts.assign(kZoneCount, 0.0);
    for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
      PlacementEngine::SoaStats counters;
      engine.place_soa(crowd, bounds[s], bounds[s + 1], sharded.users.data(), counters,
                       sharded.counts.data());
    }
    sharded.distribution = stats::normalize(sharded.counts);
    expect_identical(serial, sharded);
  }
}

TEST(ParallelPlacement, MoreThreadsThanUsers) {
  // More pool chunks than groups: every chunk is at most one group.
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(300, 6, zones);
  const PlacementEngine engine{zones};
  SoaCrowd crowd;
  crowd.build(users);
  PlacementResult chunked;
  chunked.users.resize(users.size());
  ThreadPool::global().for_chunks(crowd.groups(), 1000, [&](std::size_t begin, std::size_t end) {
    PlacementEngine::SoaStats counters;
    engine.place_soa(crowd, begin, end, chunked.users.data(), counters);
  });
  const PlacementResult serial = serial_pass(users, zones);
  chunked.counts = serial.counts;
  chunked.distribution = serial.distribution;
  expect_identical(serial, chunked);
}

TEST(ParallelPlacement, EmptyCrowd) {
  const TimeZoneProfiles zones{canonical_shape()};
  const PlacementResult result = place_crowd({}, zones);
  EXPECT_TRUE(result.users.empty());
}

TEST(ParallelPlacement, AllMetricsAgreeWithSerial) {
  // Every metric's place_crowd against a serial per-user scan of
  // placement_distance.
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(400, 7, zones);
  for (const auto metric :
       {PlacementMetric::kEmd, PlacementMetric::kCircularEmd, PlacementMetric::kTotalVariation}) {
    PlacementResult serial;
    serial.counts.assign(kZoneCount, 0.0);
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
      serial.users.push_back(placement);
      serial.counts[bin_of_zone(placement.zone_hours)] += 1.0;
    }
    serial.distribution = stats::normalize(serial.counts);
    expect_identical(serial, place_crowd(users, zones, metric));
  }
}

}  // namespace
}  // namespace tzgeo::core
