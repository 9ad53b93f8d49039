// The SIMD dispatch shim and SoA group kernels: every compiled-in path
// (scalar, AVX2, AVX-512, NEON) must place bit-identically to the
// exhaustive-scan oracle on any crowd — including degenerate profiles and
// tail groups — and sharding across threads must never change a byte.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/placement.hpp"
#include "core/placement_engine.hpp"
#include "core/simd/simd.hpp"
#include "core/soa_crowd.hpp"
#include "placement_oracle.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

constexpr simd::Path kAllPaths[] = {simd::Path::kScalar, simd::Path::kAvx2,
                                    simd::Path::kNeon, simd::Path::kAvx512};
static_assert(std::size(kAllPaths) == simd::kPathCount);

/// Restores the startup dispatch path when a test returns.
struct PathGuard {
  simd::Path saved = simd::active_path();
  ~PathGuard() { simd::set_path(saved); }
};

[[nodiscard]] HourlyProfile canonical_shape() {
  std::vector<double> counts(24, 0.01);
  counts[9] = 0.2;
  counts[20] = 0.5;
  counts[21] = 0.3;
  return HourlyProfile::from_counts(counts);
}

/// A crowd of noisy zone-shaped users salted with the degenerate shapes
/// the kernels must survive: all-zero counts (normalizes to uniform), a
/// single-spike bin, and the exactly-flat profile.
[[nodiscard]] std::vector<UserProfileEntry> mixed_crowd(std::size_t size, std::uint64_t seed,
                                                        const TimeZoneProfiles& zones) {
  util::Rng rng{seed};
  std::vector<UserProfileEntry> users;
  users.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    std::vector<double> counts(kProfileBins, 0.0);
    switch (i % 5) {
      case 0:  // all-zero counts
        break;
      case 1:  // single spike, rotating bin
        counts[i % kProfileBins] = 1.0;
        break;
      case 2:  // exactly flat
        counts.assign(kProfileBins, 1.0);
        break;
      default:  // noisy zone shape
        counts = zones.zone_profile(static_cast<std::int32_t>(rng.uniform_int(-11, 12)))
                     .values();
        for (double& v : counts) v = std::max(0.0, v + rng.normal(0.0, 0.01));
        break;
    }
    users.push_back(UserProfileEntry{static_cast<std::uint64_t>(i), 40,
                                     HourlyProfile::from_counts(counts)});
  }
  return users;
}

/// place_soa over the whole crowd on the CURRENT dispatch path.
[[nodiscard]] std::vector<UserPlacement> place_all(const PlacementEngine& engine,
                                                   const SoaCrowd& crowd) {
  std::vector<UserPlacement> out(crowd.size());
  PlacementEngine::SoaStats counters;
  engine.place_soa(crowd, 0, crowd.groups(), out.data(), counters);
  return out;
}

void expect_matches_oracle(const TimeZoneProfiles& zones,
                           const std::vector<UserProfileEntry>& users,
                           const std::vector<UserPlacement>& got) {
  ASSERT_EQ(got.size(), users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    const UserPlacement want = oracle::place(users[i].user, users[i].profile, zones);
    EXPECT_EQ(got[i].user, want.user) << "user " << i;
    EXPECT_EQ(got[i].zone_hours, want.zone_hours) << "user " << i;
    EXPECT_EQ(got[i].distance, want.distance) << "user " << i;
    EXPECT_EQ(got[i].runner_up_distance, want.runner_up_distance) << "user " << i;
  }
}

TEST(SimdPlacement, EveryPathMatchesPerUserEngineAllMetrics) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = mixed_crowd(10'000, 101, zones);
  PathGuard guard;
  const PlacementEngine engine{zones};
  SoaCrowd crowd;
  crowd.build(users);
  for (const simd::Path path : kAllPaths) {
    if (!simd::set_path(path)) continue;
    SCOPED_TRACE(simd::to_string(path));
    expect_matches_oracle(zones, users, place_all(engine, crowd));
  }
}

TEST(SimdPlacement, RaggedTailSizesMatchOnEveryPath) {
  const TimeZoneProfiles zones{canonical_shape()};
  PathGuard guard;
  const PlacementEngine engine{zones};
  // Everything around the kLanes group boundary: single user, partial
  // group, exact group, one-past, and a many-group crowd with a stub tail.
  for (const std::size_t size : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                                 std::size_t{9}, std::size_t{15}, std::size_t{201}}) {
    const auto users = mixed_crowd(size, 7 + size, zones);
    SoaCrowd crowd;
    crowd.build(users);
    for (const simd::Path path : kAllPaths) {
      if (!simd::set_path(path)) continue;
      SCOPED_TRACE(std::string{simd::to_string(path)} + " size " + std::to_string(size));
      expect_matches_oracle(zones, users, place_all(engine, crowd));
    }
  }
}

TEST(SimdPlacement, AllPathsAgreeExactly) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = mixed_crowd(4'096, 33, zones);
  PathGuard guard;
  const PlacementEngine engine{zones};
  SoaCrowd crowd;
  crowd.build(users);
  ASSERT_TRUE(simd::set_path(simd::Path::kScalar));
  const std::vector<UserPlacement> reference = place_all(engine, crowd);
  for (const simd::Path path : kAllPaths) {
    if (path == simd::Path::kScalar || !simd::set_path(path)) continue;
    SCOPED_TRACE(simd::to_string(path));
    const std::vector<UserPlacement> got = place_all(engine, crowd);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      // Exact == on the doubles: bit-identical up to the padding bytes
      // a raw memcmp would (wrongly) also compare.
      EXPECT_EQ(got[i].user, reference[i].user);
      EXPECT_EQ(got[i].zone_hours, reference[i].zone_hours);
      EXPECT_EQ(got[i].distance, reference[i].distance);
      EXPECT_EQ(got[i].runner_up_distance, reference[i].runner_up_distance);
    }
  }
}

TEST(SimdPlacement, SerialAndShardedBitIdenticalAcrossThreadCounts) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = mixed_crowd(3'000, 55, zones);
  const PlacementResult serial = place_crowd(users, zones);
  const PlacementEngine engine{zones};
  SoaCrowd crowd;
  crowd.build(users);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    // One thread per shard of the group range, each with its own counts.
    PlacementResult sharded;
    sharded.users.resize(users.size());
    sharded.counts.assign(kZoneCount, 0.0);
    std::vector<std::vector<double>> shard_counts(threads, std::vector<double>(kZoneCount));
    std::vector<std::thread> shards;
    for (std::size_t t = 0; t < threads; ++t) {
      shards.emplace_back([&, t] {
        PlacementEngine::SoaStats counters;
        engine.place_soa(crowd, crowd.groups() * t / threads, crowd.groups() * (t + 1) / threads,
                         sharded.users.data(), counters, shard_counts[t].data());
      });
    }
    for (std::thread& shard : shards) shard.join();
    for (const std::vector<double>& counts : shard_counts) {
      for (std::size_t bin = 0; bin < kZoneCount; ++bin) sharded.counts[bin] += counts[bin];
    }
    ASSERT_EQ(sharded.users.size(), serial.users.size());
    for (std::size_t i = 0; i < serial.users.size(); ++i) {
      EXPECT_EQ(sharded.users[i].user, serial.users[i].user);
      EXPECT_EQ(sharded.users[i].zone_hours, serial.users[i].zone_hours);
      EXPECT_EQ(sharded.users[i].distance, serial.users[i].distance);
      EXPECT_EQ(sharded.users[i].runner_up_distance, serial.users[i].runner_up_distance);
    }
    EXPECT_EQ(sharded.counts, serial.counts);
  }
}

TEST(SimdPlacement, FlatFlagsMatchPerUserComparisonOnEveryPath) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = mixed_crowd(1'000, 77, zones);
  PathGuard guard;
  const PlacementEngine engine{zones};
  SoaCrowd crowd;
  crowd.build(users);
  for (const simd::Path path : kAllPaths) {
    if (!simd::set_path(path)) continue;
    SCOPED_TRACE(simd::to_string(path));
    std::vector<UserPlacement> placements(users.size());
    std::vector<double> to_uniform(users.size(), -1.0);
    PlacementEngine::SoaStats counters;
    engine.place_soa(crowd, 0, crowd.groups(), placements.data(), counters, nullptr,
                     to_uniform.data());
    for (std::size_t i = 0; i < users.size(); ++i) {
      EXPECT_EQ(to_uniform[i], oracle::to_uniform(users[i].profile)) << "user " << i;
      EXPECT_EQ(to_uniform[i] < placements[i].distance, oracle::is_flat(users[i].profile, zones))
          << "user " << i;
    }
  }
}

/// Deterministic keep mask over `n` input indices with exactly `live` ones.
[[nodiscard]] std::vector<std::uint8_t> keep_mask(std::size_t n, std::size_t live,
                                                  std::uint64_t seed) {
  std::vector<std::uint8_t> keep(n, 0);
  std::fill(keep.begin(), keep.begin() + static_cast<std::ptrdiff_t>(live), 1);
  util::Rng rng{seed};
  for (std::size_t i = n; i > 1; --i) {
    std::swap(keep[i - 1],
              keep[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return keep;
}

TEST(SoaCrowdRetain, CompactsLiveColumnsAndPadsRaggedTails) {
  const TimeZoneProfiles zones{canonical_shape()};
  constexpr std::size_t kSize = 3 * simd::kLanes + 3;
  const auto users = mixed_crowd(kSize, 91, zones);
  SoaCrowd full;
  full.build(users);
  for (std::size_t live = 0; live <= 2 * simd::kLanes + 1; ++live) {
    SCOPED_TRACE("live " + std::to_string(live));
    const std::vector<std::uint8_t> keep = keep_mask(kSize, live, 100 + live);
    SoaCrowd crowd;
    crowd.build(users);
    crowd.retain(keep);
    ASSERT_EQ(crowd.size(), live);
    ASSERT_EQ(crowd.stride(), (live + simd::kLanes - 1) / simd::kLanes * simd::kLanes);
    EXPECT_EQ(crowd.groups() * simd::kLanes, crowd.stride());

    // Survivors keep the full crowd's slot order and original indices.
    std::size_t slot = 0;
    for (std::size_t s = 0; s < full.size(); ++s) {
      const std::size_t index = full.index_of_slot(s);
      if (keep[index] == 0) continue;
      ASSERT_EQ(crowd.index_of_slot(slot), index);
      EXPECT_EQ(crowd.user_of_slot(slot), full.user_of_slot(s));
      for (std::size_t b = 0; b < kProfileBins; ++b) {
        EXPECT_EQ(crowd.planes()[b * crowd.stride() + slot], full.planes()[b * full.stride() + s]);
      }
      ++slot;
    }
    // Pad lanes clone the last live column.
    for (std::size_t b = 0; b < kProfileBins && live > 0; ++b) {
      const double* plane = crowd.planes() + b * crowd.stride();
      for (std::size_t s = live; s < crowd.stride(); ++s) {
        EXPECT_EQ(plane[s], plane[live - 1]) << "plane " << b << " pad " << s;
      }
    }
  }
}

TEST(SoaCrowdRetain, PlacementAfterRetainEqualsFreshBuildOfSurvivors) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = mixed_crowd(700, 23, zones);
  PathGuard guard;
  const PlacementEngine engine{zones};
  for (const std::size_t live : {std::size_t{0}, std::size_t{1}, std::size_t{9},
                                 std::size_t{350}, std::size_t{699}}) {
    const std::vector<std::uint8_t> keep = keep_mask(users.size(), live, live);
    std::vector<UserProfileEntry> survivors;
    for (std::size_t i = 0; i < users.size(); ++i) {
      if (keep[i] != 0) survivors.push_back(users[i]);
    }
    SoaCrowd retained;
    retained.build(users);
    retained.retain(keep);
    SoaCrowd fresh;
    fresh.build(survivors);
    ASSERT_EQ(retained.size(), fresh.size());
    for (const simd::Path path : kAllPaths) {
      if (!simd::set_path(path)) continue;
      SCOPED_TRACE(std::string{simd::to_string(path)} + " live " + std::to_string(live));
      std::vector<UserPlacement> got(users.size());
      std::vector<double> got_uniform(users.size());
      std::vector<UserPlacement> want(survivors.size());
      std::vector<double> want_uniform(survivors.size());
      PlacementEngine::SoaStats counters;
      engine.place_soa(retained, 0, retained.groups(), got.data(), counters, nullptr,
                       got_uniform.data());
      engine.place_soa(fresh, 0, fresh.groups(), want.data(), counters, nullptr,
                       want_uniform.data());
      std::size_t j = 0;
      for (std::size_t i = 0; i < users.size(); ++i) {
        if (keep[i] == 0) continue;
        EXPECT_EQ(got[i].user, want[j].user);
        EXPECT_EQ(got[i].zone_hours, want[j].zone_hours);
        EXPECT_EQ(std::memcmp(&got[i].distance, &want[j].distance, sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&got[i].runner_up_distance, &want[j].runner_up_distance,
                              sizeof(double)),
                  0);
        EXPECT_EQ(std::memcmp(&got_uniform[i], &want_uniform[j], sizeof(double)), 0);
        ++j;
      }
    }
  }
}

TEST(SimdPlacement, PruneCountersPartitionTheZoneSweep) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = mixed_crowd(512, 13, zones);
  const PlacementEngine engine{zones};
  SoaCrowd crowd;
  crowd.build(users);
  std::vector<UserPlacement> out(crowd.size());
  PlacementEngine::SoaStats counters;
  engine.place_soa(crowd, 0, crowd.groups(), out.data(), counters);
  EXPECT_EQ(counters.groups, crowd.groups());
  // Every zone of every group is either pruned or evaluated, never both.
  EXPECT_EQ(counters.zone_groups_pruned + counters.zone_groups_evaluated,
            crowd.groups() * kZoneCount);
  EXPECT_GE(counters.zone_groups_evaluated, 2 * crowd.groups());  // seed pair
}

TEST(SimdPlacement, SoaCacheHitsOnRepeatAndMissesAfterInvalidate) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = mixed_crowd(100, 5, zones);
  SoaCrowdCache& cache = SoaCrowdCache::global();
  cache.invalidate_all();

  SoaCrowdCache::Prepare first;
  const auto a = cache.get(users, &first);
  EXPECT_FALSE(first.hit);

  SoaCrowdCache::Prepare second;
  const auto b = cache.get(users, &second);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(a.get(), b.get());

  cache.invalidate_all();
  SoaCrowdCache::Prepare third;
  const auto c = cache.get(users, &third);
  EXPECT_FALSE(third.hit);
  EXPECT_NE(a.get(), c.get());
}

TEST(SimdDispatch, ParseChoiceCoversEverySpelling) {
  using simd::PathChoice;
  EXPECT_EQ(simd::parse_choice(""), PathChoice::kAuto);
  EXPECT_EQ(simd::parse_choice("auto"), PathChoice::kAuto);
  EXPECT_EQ(simd::parse_choice("scalar"), PathChoice::kForceScalar);
  EXPECT_EQ(simd::parse_choice("avx2"), PathChoice::kForceAvx2);
  EXPECT_EQ(simd::parse_choice("avx512"), PathChoice::kForceAvx512);
  EXPECT_EQ(simd::parse_choice("neon"), PathChoice::kForceNeon);
  EXPECT_EQ(simd::parse_choice("AVX2"), PathChoice::kInvalid);
  EXPECT_EQ(simd::parse_choice("sse"), PathChoice::kInvalid);
}

TEST(SimdDispatch, ResolveChoiceHonorsAvailabilityAndFallsBack) {
  // Scalar is always forceable; every other force resolves to itself when
  // available and to SOME available path otherwise.
  EXPECT_EQ(simd::resolve_choice(simd::PathChoice::kForceScalar), simd::Path::kScalar);
  const simd::Path forced[] = {simd::Path::kAvx2, simd::Path::kNeon, simd::Path::kAvx512};
  const simd::PathChoice choices[] = {simd::PathChoice::kForceAvx2,
                                      simd::PathChoice::kForceNeon,
                                      simd::PathChoice::kForceAvx512};
  for (std::size_t i = 0; i < std::size(forced); ++i) {
    const simd::Path resolved = simd::resolve_choice(choices[i]);
    if (simd::path_available(forced[i])) {
      EXPECT_EQ(resolved, forced[i]);
    } else {
      EXPECT_TRUE(simd::path_available(resolved));
    }
  }
  EXPECT_TRUE(simd::path_available(simd::resolve_choice(simd::PathChoice::kAuto)));
  EXPECT_TRUE(simd::path_available(simd::resolve_choice(simd::PathChoice::kInvalid)));
}

TEST(SimdDispatch, SetPathRejectsUnavailableAndKeepsState) {
  PathGuard guard;
  ASSERT_TRUE(simd::set_path(simd::Path::kScalar));
  for (const simd::Path path : kAllPaths) {
    if (simd::path_available(path)) continue;
    EXPECT_FALSE(simd::set_path(path));
    EXPECT_EQ(simd::active_path(), simd::Path::kScalar);
  }
}

TEST(SimdDispatch, ToStringRoundTripsThroughParse) {
  for (const simd::Path path : kAllPaths) {
    const simd::PathChoice choice = simd::parse_choice(simd::to_string(path));
    EXPECT_NE(choice, simd::PathChoice::kAuto);
    EXPECT_NE(choice, simd::PathChoice::kInvalid);
  }
}

}  // namespace
}  // namespace tzgeo::core
