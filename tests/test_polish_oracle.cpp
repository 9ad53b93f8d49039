// The fused Section IV-C polish against the copy-per-round polish it
// replaced.  The oracle below is that code: each round flags every kept
// user through the per-user engine (distance to uniform < distance to the
// nearest zone), copies the survivors, places them again with
// place_crowd_parallel on the same zones, and rebuilds the generic profile
// from HourlyProfile::shifted copies through aggregate_profiles; the final
// crowd placement places the survivors once more on the input zones.
//
// The production polish makes one SoA kernel pass per round over a crowd
// it compacts in place, sums the aligned bins by index arithmetic, and
// reuses round 0's placements for the final placement.  The two must agree
// field for field: kept and removed users and their order, the round
// count, the polished generic profile bit for bit, and every placement bit
// for bit — on randomized crowds on both sides of the serial cutoff, with
// all-flat and none-flat crowds, duplicate profiles, near-tied zones,
// users within 1e-12 of the flat threshold, early fixpoints and runs cut
// off by max_rounds, under every metric and every compiled-in SIMD path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/flat_filter.hpp"
#include "core/geolocator.hpp"
#include "core/parallel.hpp"
#include "core/placement_engine.hpp"
#include "core/simd/simd.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

constexpr PlacementMetric kAllMetrics[] = {
    PlacementMetric::kEmd, PlacementMetric::kCircularEmd, PlacementMetric::kTotalVariation};

constexpr simd::Path kAllPaths[] = {simd::Path::kScalar, simd::Path::kAvx2,
                                    simd::Path::kNeon, simd::Path::kAvx512};
static_assert(std::size(kAllPaths) == simd::kPathCount);

/// Restores the startup dispatch path when a test returns.
struct PathGuard {
  simd::Path saved = simd::active_path();
  ~PathGuard() { simd::set_path(saved); }
};

// --- the oracle: the copy-per-round polish -----------------------------

[[nodiscard]] FlatFilterResult oracle_filter(const std::vector<UserProfileEntry>& users,
                                             const TimeZoneProfiles& zones,
                                             PlacementMetric metric) {
  const PlacementEngine engine{zones, metric};
  FlatFilterResult result;
  for (const UserProfileEntry& user : users) {
    const bool flat =
        engine.distance_to_uniform(user.profile) < engine.nearest_distance(user.profile);
    (flat ? result.removed : result.kept).push_back(user);
  }
  return result;
}

[[nodiscard]] PolishResult oracle_polish(const std::vector<UserProfileEntry>& users,
                                         const TimeZoneProfiles& initial_zones,
                                         PlacementMetric metric, int max_rounds) {
  PolishResult result{FlatFilterResult{users, {}}, initial_zones, 0};
  for (int round = 0; round < max_rounds; ++round) {
    FlatFilterResult split = oracle_filter(result.split.kept, result.zones, metric);
    split.removed.insert(split.removed.end(), result.split.removed.begin(),
                         result.split.removed.end());
    const bool fixpoint = split.kept.size() == result.split.kept.size();
    result.split = std::move(split);
    result.rounds = round + 1;
    if (fixpoint || result.split.kept.empty()) break;

    const PlacementResult placement = place_crowd_parallel(result.split.kept, result.zones, metric);
    std::vector<HourlyProfile> aligned;
    aligned.reserve(result.split.kept.size());
    for (std::size_t i = 0; i < result.split.kept.size(); ++i) {
      aligned.push_back(
          result.split.kept[i].profile.shifted(placement.users[i].zone_hours));
    }
    result.zones = TimeZoneProfiles{aggregate_profiles(aligned)};
  }
  return result;
}

// --- comparisons ----------------------------------------------------------

[[nodiscard]] bool same_bits(const double& a, const double& b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

[[nodiscard]] bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_same_entries(const std::vector<UserProfileEntry>& got,
                         const std::vector<UserProfileEntry>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].user, want[i].user) << what << " #" << i;
    ASSERT_EQ(got[i].posts, want[i].posts) << what << " #" << i;
    ASSERT_TRUE(same_bits(got[i].profile.values(), want[i].profile.values()))
        << what << " #" << i;
  }
}

void expect_same_placements(const PlacementResult& got, const PlacementResult& want) {
  ASSERT_EQ(got.users.size(), want.users.size());
  for (std::size_t i = 0; i < want.users.size(); ++i) {
    const UserPlacement& g = got.users[i];
    const UserPlacement& w = want.users[i];
    ASSERT_EQ(g.user, w.user) << "placement #" << i;
    ASSERT_EQ(g.zone_hours, w.zone_hours) << "placement #" << i;
    ASSERT_TRUE(same_bits(g.distance, w.distance)) << "placement #" << i;
    ASSERT_TRUE(same_bits(g.runner_up_distance, w.runner_up_distance)) << "placement #" << i;
  }
  EXPECT_TRUE(same_bits(got.counts, want.counts));
  EXPECT_TRUE(same_bits(got.distribution, want.distribution));
}

// --- crowds -------------------------------------------------------------

[[nodiscard]] HourlyProfile canonical_shape() {
  std::vector<double> counts(kProfileBins, 0.01);
  counts[9] = 0.2;
  counts[19] = 0.3;
  counts[20] = 0.4;
  counts[21] = 0.3;
  return HourlyProfile::from_counts(counts);
}

/// A random diurnal generic profile: two bumps at random hours.
[[nodiscard]] HourlyProfile random_shape(util::Rng& rng) {
  std::vector<double> counts(kProfileBins, 0.02);
  for (int bump = 0; bump < 2; ++bump) {
    const auto peak = static_cast<std::size_t>(rng.uniform_int(0, 23));
    const double height = rng.uniform(0.1, 0.5);
    for (std::size_t d = 0; d < 3; ++d) {
      counts[(peak + d) % kProfileBins] += height / static_cast<double>(d + 1);
    }
  }
  return HourlyProfile::from_counts(counts);
}

[[nodiscard]] std::int32_t random_zone(util::Rng& rng) {
  return static_cast<std::int32_t>(rng.uniform_int(kMinZone, kMaxZone));
}

/// Activity sampled from a zone's profile: `posts` draws, binned by hour.
[[nodiscard]] HourlyProfile sampled_human(util::Rng& rng, const TimeZoneProfiles& zones,
                                          std::size_t posts) {
  const std::vector<double>& p = zones.zone_profile(random_zone(rng)).values();
  std::vector<double> counts(kProfileBins, 0.0);
  for (std::size_t k = 0; k < posts; ++k) {
    double u = rng.uniform();
    std::size_t h = 0;
    while (h + 1 < kProfileBins && u >= p[h]) u -= p[h++];
    counts[h] += 1.0;
  }
  return HourlyProfile::from_counts(counts);
}

/// Near-uniform activity: a bot or a crowd-of-many account.
[[nodiscard]] HourlyProfile near_flat(util::Rng& rng, double noise) {
  std::vector<double> counts(kProfileBins, 1.0);
  for (double& c : counts) c += rng.uniform(0.0, noise);
  return HourlyProfile::from_counts(counts);
}

/// Two adjacent zone profiles mixed half and half, nudged by ~1e-13: the
/// nearest and runner-up zone are tied up to the kernels' prune margin.
[[nodiscard]] HourlyProfile near_tie(util::Rng& rng, const TimeZoneProfiles& zones) {
  const std::int32_t zone = static_cast<std::int32_t>(rng.uniform_int(kMinZone, kMaxZone - 1));
  const std::vector<double>& a = zones.zone_profile(zone).values();
  const std::vector<double>& b = zones.zone_profile(zone + 1).values();
  std::vector<double> counts(kProfileBins);
  for (std::size_t h = 0; h < kProfileBins; ++h) counts[h] = 0.5 * a[h] + 0.5 * b[h];
  counts[static_cast<std::size_t>(rng.uniform_int(0, 23))] += rng.uniform(-1e-13, 1e-13);
  return HourlyProfile::from_counts(counts);
}

/// lambda * zone + (1 - lambda) * uniform.
[[nodiscard]] HourlyProfile blend(const HourlyProfile& zone, double lambda) {
  std::vector<double> counts(kProfileBins);
  for (std::size_t h = 0; h < kProfileBins; ++h) {
    counts[h] = lambda * zone.values()[h] + (1.0 - lambda) / static_cast<double>(kProfileBins);
  }
  return HourlyProfile::from_counts(counts);
}

/// Profiles straddling the flat threshold on the initial zones: the blend
/// weight where the distance to uniform meets the nearest-zone distance,
/// bisected to the last bit, then offsets of a few 1e-12.
void add_threshold_users(util::Rng& rng, const TimeZoneProfiles& zones,
                         std::vector<HourlyProfile>& out) {
  const PlacementEngine engine{zones, PlacementMetric::kCircularEmd};
  const HourlyProfile& zone = zones.zone_profile(random_zone(rng));
  const auto flat = [&](double lambda) {
    const HourlyProfile p = blend(zone, lambda);
    return engine.distance_to_uniform(p) < engine.nearest_distance(p);
  };
  double lo = 0.0;  // flat
  double hi = 1.0;  // kept
  for (int step = 0; step < 80; ++step) {
    const double mid = 0.5 * (lo + hi);
    (flat(mid) ? lo : hi) = mid;
  }
  for (int k = -3; k <= 3; ++k) out.push_back(blend(zone, hi + 1e-12 * k));
}

enum class Kind { kMixed, kAllFlat, kNoneFlat, kThreshold, kLadder };

struct Case {
  std::string name;
  std::vector<UserProfileEntry> users;
  TimeZoneProfiles zones;
  int max_rounds = 8;
};

[[nodiscard]] Case make_case(std::uint64_t seed, std::size_t size, Kind kind, int max_rounds) {
  util::Rng rng{seed};
  const bool canonical = seed % 3 != 0;
  TimeZoneProfiles zones{kind == Kind::kLadder ? blend(canonical_shape(), 0.02)
                         : canonical                ? canonical_shape()
                                                    : random_shape(rng)};
  const TimeZoneProfiles sharp{canonical_shape()};
  std::vector<HourlyProfile> profiles;
  profiles.reserve(size + 8);
  if (kind == Kind::kThreshold) add_threshold_users(rng, zones, profiles);
  while (profiles.size() < size) {
    const std::size_t i = profiles.size();
    switch (kind) {
      case Kind::kAllFlat:
        profiles.push_back(rng.bernoulli(0.2) ? HourlyProfile{} : near_flat(rng, 0.05));
        break;
      case Kind::kNoneFlat:
        profiles.push_back(zones.zone_profile(random_zone(rng)));
        break;
      case Kind::kLadder:
        // Blend weights with density 4 (1 - w)^3 against a near-flat
        // initial generic profile: each round rebuilds a sharper generic
        // and peels off a thinner slice, so the polish runs 7 to 11 rounds
        // on a thousand users or more.
        profiles.push_back(
            blend(sharp.zone_profile(random_zone(rng)), 1.0 - std::pow(rng.uniform(), 0.25)));
        break;
      case Kind::kMixed:
      case Kind::kThreshold: {
        const double u = rng.uniform();
        if (u < 0.45) {
          profiles.push_back(
              sampled_human(rng, zones, static_cast<std::size_t>(rng.uniform_int(1, 200))));
        } else if (u < 0.6) {
          profiles.push_back(near_flat(rng, rng.uniform(0.05, 1.5)));
        } else if (u < 0.7 && i > 0) {  // duplicate of an earlier profile
          profiles.push_back(profiles[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
        } else if (u < 0.8) {
          profiles.push_back(near_tie(rng, zones));
        } else {
          // Humans blurred toward uniform: the late-round removals.
          profiles.push_back(blend(zones.zone_profile(random_zone(rng)), rng.uniform(0.1, 0.6)));
        }
        break;
      }
    }
  }
  // Shuffle so threshold users are spread through the input order.
  for (std::size_t i = profiles.size(); i > 1; --i) {
    std::swap(profiles[i - 1],
              profiles[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  Case c{"seed " + std::to_string(seed) + " size " + std::to_string(profiles.size()), {},
         std::move(zones), max_rounds};
  c.users.reserve(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    c.users.push_back(UserProfileEntry{1000 + i * 7, 30 + i % 50, std::move(profiles[i])});
  }
  return c;
}

/// 60 crowds: sizes around the group width and the 256-user serial
/// cutoff, plus random sizes up to 3000; one in six all-flat, one in six
/// none-flat, one in four with threshold users, a few slow ladders that
/// run into the cap; max_rounds 1, 2, 3 or 8.
[[nodiscard]] std::vector<Case> all_cases() {
  constexpr std::size_t kFixedSizes[] = {1, 2, 7, 8, 9, 17, 255, 256, 257, 3000};
  constexpr int kRounds[] = {8, 8, 3, 8, 2, 8, 1, 8};
  std::vector<Case> cases;
  util::Rng sizes{0x9011};
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const std::size_t size = seed <= std::size(kFixedSizes)
                                 ? kFixedSizes[seed - 1]
                                 : static_cast<std::size_t>(sizes.uniform_int(1, 3000));
    const Kind kind = seed % 6 == 0    ? Kind::kAllFlat
                      : seed % 6 == 1  ? Kind::kNoneFlat
                      : seed % 4 == 2  ? Kind::kThreshold
                      : seed % 10 == 5 ? Kind::kLadder
                                       : Kind::kMixed;
    cases.push_back(make_case(seed, size, kind, kRounds[seed % std::size(kRounds)]));
  }
  return cases;
}

// --- the tests ------------------------------------------------------------

TEST(PolishOracle, FusedPolishMatchesCopyPerRoundPolishFieldForField) {
  PathGuard guard;
  int fixpoint_at_1 = 0;
  int fixpoint_at_2 = 0;
  int capped = 0;
  int capped_at_8 = 0;
  int emptied = 0;
  int paths_run = 0;
  for (const Case& c : all_cases()) {
    for (const PlacementMetric metric : kAllMetrics) {
      SCOPED_TRACE(c.name + " metric " + std::to_string(static_cast<int>(metric)) +
                   " max_rounds " + std::to_string(c.max_rounds));
      ASSERT_TRUE(simd::set_path(simd::Path::kScalar));
      const PolishResult want = oracle_polish(c.users, c.zones, metric, c.max_rounds);
      const FlatFilterResult want_filter = oracle_filter(c.users, c.zones, metric);
      PlacementResult want_placement;
      if (!want.split.kept.empty()) {
        want_placement = place_crowd_parallel(want.split.kept, c.zones, metric);
      }
      if (metric == PlacementMetric::kCircularEmd) {
        const bool hit_cap = want.rounds == c.max_rounds;
        fixpoint_at_1 += want.rounds == 1 && !want.split.kept.empty() && c.max_rounds > 1;
        fixpoint_at_2 += want.rounds == 2 && !hit_cap && !want.split.kept.empty();
        capped += hit_cap && c.max_rounds > 1 && want.split.removed.size() > 0;
        capped_at_8 += hit_cap && c.max_rounds == 8;
        emptied += want.split.kept.empty() && !c.users.empty();
      }

      for (const simd::Path path : kAllPaths) {
        if (!simd::set_path(path)) continue;
        SCOPED_TRACE(simd::to_string(path));
        ++paths_run;
        const PolishResult got = polish_population(c.users, c.zones, metric, c.max_rounds);
        EXPECT_EQ(got.rounds, want.rounds);
        expect_same_entries(got.split.kept, want.split.kept, "kept");
        expect_same_entries(got.split.removed, want.split.removed, "removed");
        EXPECT_TRUE(same_bits(got.zones.generic().values(), want.zones.generic().values()))
            << "polished generic profile";

        const FlatFilterResult got_filter = filter_flat_profiles(c.users, c.zones, metric);
        expect_same_entries(got_filter.kept, want_filter.kept, "filter kept");
        expect_same_entries(got_filter.removed, want_filter.removed, "filter removed");

        // polish_and_place always runs polish_population's default cap.
        if (c.max_rounds != 8) continue;
        const PolishedPlacement placed = polish_and_place(c.users, c.zones, metric);
        EXPECT_EQ(placed.removed, want.split.removed.size());
        if (want.split.kept.empty()) {
          EXPECT_TRUE(placed.placement.users.empty());
        } else {
          expect_same_placements(placed.placement, want_placement);
        }
      }
    }
  }
  EXPECT_GE(paths_run, 60 * 3);
  // The generated crowds must exercise every way a polish ends.
  EXPECT_GT(fixpoint_at_1, 0) << "no crowd reached its fixpoint in round 1";
  EXPECT_GT(fixpoint_at_2, 0) << "no crowd reached its fixpoint in round 2";
  EXPECT_GT(capped, 0) << "no crowd ran to max_rounds";
  EXPECT_GT(capped_at_8, 0) << "no crowd placed by polish_and_place ran to its cap";
  EXPECT_GT(emptied, 0) << "no crowd lost every user";
}

TEST(PolishOracle, UnboundedRoundCapRunsToTheFixpoint) {
  // A cap far above any reachable round count means "run to the
  // fixpoint": nothing may be sized by the cap itself.
  for (const std::uint64_t seed : {1u, 4u}) {
    const Case c = make_case(seed, 1000 + 200 * seed, Kind::kLadder, 8);
    SCOPED_TRACE(c.name);
    const PolishResult want = oracle_polish(c.users, c.zones, PlacementMetric::kCircularEmd,
                                            std::numeric_limits<int>::max());
    EXPECT_GT(want.rounds, 8) << "the crowd should run past the default cap";
    const PolishResult got = polish_population(c.users, c.zones, PlacementMetric::kCircularEmd,
                                               std::numeric_limits<int>::max());
    EXPECT_EQ(got.rounds, want.rounds);
    expect_same_entries(got.split.kept, want.split.kept, "kept");
    expect_same_entries(got.split.removed, want.split.removed, "removed");
    EXPECT_TRUE(same_bits(got.zones.generic().values(), want.zones.generic().values()))
        << "polished generic profile";
  }
}

TEST(PolishOracle, GeolocateReportsTheOraclePlacement) {
  // geolocate_crowd on top: users_filtered_flat, users_analyzed and the
  // placement the mixture is fitted to.
  for (const std::uint64_t seed : {3u, 14u, 25u}) {
    const Case c = make_case(seed, 400 + 300 * seed, Kind::kMixed, 8);
    SCOPED_TRACE(c.name);
    const PolishResult want = oracle_polish(c.users, c.zones, PlacementMetric::kCircularEmd, 8);
    ASSERT_FALSE(want.split.kept.empty());
    const PlacementResult want_placement =
        place_crowd_parallel(want.split.kept, c.zones, PlacementMetric::kCircularEmd);
    const GeolocationResult got = geolocate_crowd(c.users, c.zones);
    EXPECT_EQ(got.users_filtered_flat, want.split.removed.size());
    EXPECT_EQ(got.users_analyzed, want.split.kept.size());
    expect_same_placements(got.placement, want_placement);
  }
}

TEST(PolishOracle, ThresholdUsersStraddleTheFlatTest) {
  // The bisected users really sit on both sides of the flat test, so the
  // oracle comparison above covers ties at the 1e-12 scale.
  util::Rng rng{77};
  const TimeZoneProfiles zones{canonical_shape()};
  std::vector<HourlyProfile> profiles;
  add_threshold_users(rng, zones, profiles);
  const PlacementEngine engine{zones, PlacementMetric::kCircularEmd};
  int flat = 0;
  for (const HourlyProfile& p : profiles) {
    flat += engine.distance_to_uniform(p) < engine.nearest_distance(p) ? 1 : 0;
  }
  EXPECT_GT(flat, 0);
  EXPECT_LT(flat, static_cast<int>(profiles.size()));
}

}  // namespace
}  // namespace tzgeo::core
