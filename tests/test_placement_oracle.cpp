// Differential placement oracle: every circular-EMD placement path against
// the two independent references of placement_oracle.hpp, on every
// compiled-in SIMD path.  The paths are place_crowd, round 0 of
// polish_and_place, IncrementalGeolocator::estimate, build_dossier and
// build_top_dossiers.  The crowds are built to stress the tie-break and the
// kernel's prune: exact ties (dyadic profiles against a one-hot generic
// profile), near-ties bisected down to the 1e-12 prune margin, half-hour
// offset profiles, one-post users, and degenerate shapes, on both sides of
// the pooled-placement cutoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/activity.hpp"
#include "core/dossier.hpp"
#include "core/flat_filter.hpp"
#include "core/incremental.hpp"
#include "core/placement.hpp"
#include "core/profile.hpp"
#include "core/simd/simd.hpp"
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

[[nodiscard]] HourlyProfile diurnal_shape() {
  std::vector<double> counts(kProfileBins, 0.01);
  counts[9] = 0.2;
  counts[20] = 0.5;
  counts[21] = 0.3;
  return HourlyProfile::from_counts(counts);
}

/// A one-hot generic profile: every zone profile is a spike, so dyadic
/// user profiles sit at exactly equal distances from several zones.
[[nodiscard]] HourlyProfile one_hot_shape() {
  std::vector<double> counts(kProfileBins, 0.0);
  counts[20] = 1.0;
  return HourlyProfile::from_counts(counts);
}

[[nodiscard]] HourlyProfile blend(const HourlyProfile& a, const HourlyProfile& b, double lambda) {
  std::vector<double> counts(kProfileBins);
  for (std::size_t h = 0; h < kProfileBins; ++h) {
    counts[h] = lambda * a[h] + (1.0 - lambda) * b[h];
  }
  return HourlyProfile::from_counts(counts);
}

/// Hour counts with `count` posts at each listed hour.
[[nodiscard]] std::vector<double> peaks(std::initializer_list<std::size_t> hours, double count) {
  std::vector<double> counts(kProfileBins, 0.0);
  for (const std::size_t h : hours) counts[h % kProfileBins] += count;
  return counts;
}

struct Crowd {
  std::string name;
  TimeZoneProfiles zones;
  std::vector<UserProfileEntry> users;
};

void add_user(Crowd& crowd, const HourlyProfile& profile) {
  crowd.users.push_back(UserProfileEntry{crowd.users.size() + 1, 40, profile});
}

/// Exact ties: spikes, two equal peaks one or two hours apart, antipodal
/// pairs and the uniform profile against one-hot zones.
[[nodiscard]] Crowd tie_crowd() {
  Crowd crowd{"ties", TimeZoneProfiles{one_hot_shape()}, {}};
  for (std::size_t h = 0; h < kProfileBins; ++h) {
    add_user(crowd, HourlyProfile::from_counts(peaks({h}, 1.0)));
    add_user(crowd, HourlyProfile::from_counts(peaks({h, h + 1}, 1.0)));
    add_user(crowd, HourlyProfile::from_counts(peaks({h, h + 2}, 1.0)));
    add_user(crowd, HourlyProfile::from_counts(peaks({h, h + 12}, 1.0)));
    add_user(crowd, HourlyProfile::from_counts(peaks({h, h + 4, h + 8}, 2.0)));
  }
  add_user(crowd, HourlyProfile{});
  return crowd;
}

/// Near-ties: blends of adjacent zone profiles bisected to the weight
/// where the two zones are equidistant, then stepped by 1e-13 around it,
/// so the winning margin straddles the kernel's 1e-12 prune margin.
[[nodiscard]] Crowd near_tie_crowd(std::uint64_t seed) {
  Crowd crowd{"near-ties", TimeZoneProfiles{diurnal_shape()}, {}};
  util::Rng rng{seed};
  for (int pair = 0; pair < 12; ++pair) {
    const auto zone = static_cast<std::int32_t>(rng.uniform_int(kMinZone, kMaxZone - 1));
    const HourlyProfile& a = crowd.zones.zone_profile(zone);
    const HourlyProfile& b = crowd.zones.zone_profile(zone + 1);
    const auto closer_to_a = [&](double lambda) {
      const HourlyProfile p = blend(a, b, lambda);
      return stats::emd_circular_24(p.values().data(), a.values().data()) <
             stats::emd_circular_24(p.values().data(), b.values().data());
    };
    double lo = 0.0;  // closer to b
    double hi = 1.0;  // closer to a
    for (int step = 0; step < 80; ++step) {
      const double mid = 0.5 * (lo + hi);
      (closer_to_a(mid) ? hi : lo) = mid;
    }
    for (int k = -12; k <= 12; ++k) add_user(crowd, blend(a, b, hi + 1e-13 * k));
  }
  return crowd;
}

/// Half-hour offsets (midway between two zones), one-post users and the
/// degenerate shapes, replicated with noise past the pooled cutoff.
[[nodiscard]] Crowd mixed_crowd(std::uint64_t seed, std::size_t size) {
  Crowd crowd{"mixed-" + std::to_string(size), TimeZoneProfiles{diurnal_shape()}, {}};
  util::Rng rng{seed};
  for (std::size_t i = 0; crowd.users.size() < size; ++i) {
    const auto zone = static_cast<std::int32_t>(rng.uniform_int(kMinZone, kMaxZone));
    const HourlyProfile& own = crowd.zones.zone_profile(zone);
    switch (i % 6) {
      case 0: {  // half-hour offset
        const std::int32_t next = zone == kMaxZone ? kMinZone : zone + 1;
        add_user(crowd, blend(own, crowd.zones.zone_profile(next), 0.5));
        break;
      }
      case 1:  // one post
        add_user(crowd, HourlyProfile::from_counts(peaks({i}, 1.0)));
        break;
      case 2: {  // all-zero counts (normalizes to uniform) or exactly flat
        const double count = i % 12 == 2 ? 1.0 : 0.0;
        add_user(crowd, HourlyProfile::from_counts(std::vector<double>(kProfileBins, count)));
        break;
      }
      default: {  // noisy zone shape, some close to flat
        std::vector<double> noisy = own.values();
        const double flatten = rng.uniform() < 0.2 ? rng.uniform(0.5, 1.0) : 0.0;
        for (double& v : noisy) {
          v = std::max(0.0, (1.0 - flatten) * v + flatten / 24.0 + rng.normal(0.0, 0.01));
        }
        add_user(crowd, HourlyProfile::from_counts(noisy));
        break;
      }
    }
  }
  return crowd;
}

[[nodiscard]] std::vector<Crowd> profile_crowds() {
  return {tie_crowd(), near_tie_crowd(5), mixed_crowd(7, 9), mixed_crowd(8, 255),
          mixed_crowd(9, 700)};
}

[[nodiscard]] bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_oracle_placement(const UserPlacement& got, const UserPlacement& want) {
  EXPECT_EQ(got.user, want.user);
  EXPECT_EQ(got.zone_hours, want.zone_hours) << "user " << want.user;
  EXPECT_TRUE(same_bits(got.distance, want.distance)) << "user " << want.user;
  EXPECT_TRUE(same_bits(got.runner_up_distance, want.runner_up_distance)) << "user " << want.user;
}

TEST(PlacementOracle, BreakpointScanAgreesWithTheCircularKernels) {
  for (const Crowd& crowd : profile_crowds()) {
    SCOPED_TRACE(crowd.name);
    const PlacementResult placed = place_crowd(crowd.users, crowd.zones);
    for (std::size_t i = 0; i < crowd.users.size(); ++i) {
      const HourlyProfile& profile = crowd.users[i].profile;
      double nearest = std::numeric_limits<double>::infinity();
      for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
        const double exact = oracle::circular_emd_breakpoints(profile, crowd.zones.all()[bin]);
        EXPECT_NEAR(placement_distance(profile, crowd.zones.all()[bin],
                                       PlacementMetric::kCircularEmd),
                    exact, 1e-12);
        nearest = std::min(nearest, exact);
      }
      EXPECT_NEAR(placed.users[i].distance, nearest, 1e-12);
      EXPECT_NEAR(oracle::to_uniform(profile),
                  oracle::circular_emd_breakpoints(profile, HourlyProfile{}), 1e-12);
    }
  }
}

TEST(PlacementOracle, CrowdsExerciseTiesAndNearTies) {
  int exact_ties = 0;
  int near_ties = 0;
  for (const Crowd& crowd : profile_crowds()) {
    for (const UserProfileEntry& user : crowd.users) {
      const UserPlacement want = oracle::place(user.user, user.profile, crowd.zones);
      exact_ties += want.runner_up_distance == want.distance ? 1 : 0;
      const double margin = want.runner_up_distance - want.distance;
      near_ties += margin > 0.0 && margin < 1e-11 ? 1 : 0;
    }
  }
  EXPECT_GT(exact_ties, 20) << "too few exact ties to test the tie-break";
  EXPECT_GT(near_ties, 20) << "too few margins near the 1e-12 prune margin";
}

TEST(PlacementOracle, PlaceCrowdMatchesExhaustiveScanOnEveryPath) {
  PathGuard guard;
  for (const Crowd& crowd : profile_crowds()) {
    for (const simd::Path path : kAllPaths) {
      if (!simd::set_path(path)) continue;
      SCOPED_TRACE(crowd.name + " " + simd::to_string(path));
      const PlacementResult got = place_crowd(crowd.users, crowd.zones);
      ASSERT_EQ(got.users.size(), crowd.users.size());
      std::vector<double> counts(kZoneCount, 0.0);
      for (std::size_t i = 0; i < crowd.users.size(); ++i) {
        const UserPlacement want =
            oracle::place(crowd.users[i].user, crowd.users[i].profile, crowd.zones);
        expect_oracle_placement(got.users[i], want);
        counts[bin_of_zone(want.zone_hours)] += 1.0;
      }
      EXPECT_EQ(got.counts, counts);
    }
  }
}

TEST(PlacementOracle, PolishRoundZeroMatchesExhaustiveScanOnEveryPath) {
  // polish_and_place reports the survivors' round-0 placements on the
  // input zones; the survivors themselves are the polish's.
  PathGuard guard;
  for (const Crowd& crowd : profile_crowds()) {
    const PolishResult polish = polish_population(crowd.users, crowd.zones);
    std::map<std::uint64_t, const HourlyProfile*> profiles;
    for (const UserProfileEntry& user : crowd.users) profiles[user.user] = &user.profile;
    for (const simd::Path path : kAllPaths) {
      if (!simd::set_path(path)) continue;
      SCOPED_TRACE(crowd.name + " " + simd::to_string(path));
      const PolishedPlacement got = polish_and_place(crowd.users, crowd.zones);
      EXPECT_EQ(got.removed, polish.split.removed.size());
      ASSERT_EQ(got.placement.users.size(), polish.split.kept.size());
      for (std::size_t i = 0; i < polish.split.kept.size(); ++i) {
        const std::uint64_t user = polish.split.kept[i].user;
        expect_oracle_placement(got.placement.users[i],
                                oracle::place(user, *profiles.at(user), crowd.zones));
      }
    }
  }
}

// --- event-level crowds: the incremental geolocator and the dossiers -------

constexpr tz::UtcSeconds kDay = 86'400;
constexpr tz::UtcSeconds kHour = 3'600;

/// A user's posts: counts[h] posts at UTC hour h, each on its own day so
/// no two share a (day, hour) cell.
[[nodiscard]] std::vector<tz::UtcSeconds> events_of_counts(const std::vector<double>& counts) {
  std::vector<tz::UtcSeconds> events;
  tz::UtcSeconds day = 0;
  for (std::size_t h = 0; h < kProfileBins; ++h) {
    for (int c = 0; c < static_cast<int>(counts[h]); ++c) {
      events.push_back(day++ * kDay + static_cast<tz::UtcSeconds>(h) * kHour + 17);
    }
  }
  return events;
}

struct EventCrowd {
  std::string name;
  TimeZoneProfiles zones;
  std::map<std::uint64_t, std::vector<tz::UtcSeconds>> users;
};

/// One-post users, equal peaks (exact ties on the one-hot zones),
/// half-hour pairs and noisy diurnal users.
[[nodiscard]] EventCrowd event_crowd(const HourlyProfile& generic, std::string name,
                                     std::uint64_t seed, std::size_t size) {
  EventCrowd crowd{std::move(name), TimeZoneProfiles{generic}, {}};
  util::Rng rng{seed};
  for (std::size_t i = 0; crowd.users.size() < size; ++i) {
    const auto h = static_cast<std::size_t>(rng.uniform_int(0, 23));
    std::vector<double> counts;
    switch (i % 5) {
      case 0:
        counts = peaks({h}, 1.0);
        break;
      case 1:
        counts = peaks({h, h + 2}, 3.0);
        break;
      case 2:
        counts = peaks({h, h + 1}, 4.0);
        break;
      default:
        counts.assign(kProfileBins, 0.0);
        for (int post = 0; post < 40; ++post) {
          counts[(h + static_cast<std::size_t>(rng.uniform_int(0, 5))) % kProfileBins] += 1.0;
        }
        if (i % 10 == 4) {
          for (double& c : counts) c += 2.0;  // near flat
        }
        break;
    }
    crowd.users[1000 + i] = events_of_counts(counts);
  }
  return crowd;
}

[[nodiscard]] std::vector<EventCrowd> event_crowds() {
  return {event_crowd(one_hot_shape(), "events-one-hot", 11, 120),
          event_crowd(diurnal_shape(), "events-diurnal", 12, 300)};
}

/// The incremental snapshot the oracle predicts: every user with at least
/// one post, placed by exhaustive scan, in ascending id order.
struct ExpectedSnapshot {
  std::vector<double> counts = std::vector<double>(kZoneCount, 0.0);
  PlacementResult active;
  std::size_t flat = 0;
};

[[nodiscard]] ExpectedSnapshot expected_snapshot(const EventCrowd& crowd) {
  ExpectedSnapshot expected;
  std::vector<std::int64_t> scratch;
  for (const auto& [user, events] : crowd.users) {
    const HourlyProfile profile = profile_of_events(events, scratch);
    if (oracle::is_flat(profile, crowd.zones)) {
      ++expected.flat;
      continue;
    }
    const UserPlacement placement = oracle::place(user, profile, crowd.zones);
    expected.counts[bin_of_zone(placement.zone_hours)] += 1.0;
    expected.active.users.push_back(placement);
  }
  return expected;
}

void expect_snapshot(const IncrementalGeolocator::Snapshot& got, const ExpectedSnapshot& want) {
  EXPECT_EQ(got.counts, want.counts);
  EXPECT_EQ(got.flat_users, want.flat);
  EXPECT_EQ(got.active_users, want.active.users.size());
  // The confidence summary is built from every active user's distance and
  // runner-up, so bit-equal summaries pin those too.
  const PlacementConfidence confidence = placement_confidence(want.active);
  EXPECT_TRUE(same_bits(got.confidence.mean_margin, confidence.mean_margin));
  EXPECT_TRUE(same_bits(got.confidence.median_margin, confidence.median_margin));
  EXPECT_TRUE(same_bits(got.confidence.decisive_fraction, confidence.decisive_fraction));
}

TEST(PlacementOracle, IncrementalEstimateMatchesExhaustiveScanOnEveryPath) {
  PathGuard guard;
  for (const EventCrowd& crowd : event_crowds()) {
    for (const simd::Path path : kAllPaths) {
      if (!simd::set_path(path)) continue;
      SCOPED_TRACE(crowd.name + " " + simd::to_string(path));
      EventCrowd grown = crowd;
      IncrementalGeolocator geolocator{grown.zones, {}, 1};
      for (const auto& [user, events] : grown.users) {
        for (const tz::UtcSeconds t : events) geolocator.observe(user, t);
      }
      expect_snapshot(geolocator.estimate(), expected_snapshot(grown));

      // A second estimate re-places only the users that posted again.
      tz::UtcSeconds late = 400 * kDay;
      std::size_t i = 0;
      for (auto& [user, events] : grown.users) {
        if (i++ % 3 != 0) continue;
        const tz::UtcSeconds t = late + static_cast<tz::UtcSeconds>(i % 24) * kHour;
        late += kDay;
        events.push_back(t);
        geolocator.observe(user, t);
      }
      expect_snapshot(geolocator.estimate(), expected_snapshot(grown));
    }
  }
}

TEST(PlacementOracle, DossiersMatchExhaustiveScanOnEveryPath) {
  PathGuard guard;
  for (const EventCrowd& crowd : event_crowds()) {
    ActivityTrace trace;
    for (const auto& [user, events] : crowd.users) {
      for (const tz::UtcSeconds t : events) trace.add(user, t);
    }
    std::vector<std::int64_t> scratch;
    for (const simd::Path path : kAllPaths) {
      if (!simd::set_path(path)) continue;
      SCOPED_TRACE(crowd.name + " " + simd::to_string(path));
      for (const auto& [user, events] : crowd.users) {
        const UserDossier dossier = build_dossier(user, events, crowd.zones);
        const HourlyProfile profile = profile_of_events(events, scratch);
        ASSERT_EQ(dossier.profile.values(), profile.values());
        expect_oracle_placement(dossier.placement, oracle::place(user, profile, crowd.zones));
        EXPECT_EQ(dossier.flat, oracle::is_flat(profile, crowd.zones)) << "user " << user;
      }
      const std::vector<UserDossier> top = build_top_dossiers(trace, crowd.zones, 1000);
      ASSERT_EQ(top.size(), crowd.users.size());
      for (const UserDossier& dossier : top) {
        const HourlyProfile profile = profile_of_events(crowd.users.at(dossier.user), scratch);
        ASSERT_EQ(dossier.profile.values(), profile.values());
        expect_oracle_placement(dossier.placement,
                                oracle::place(dossier.user, profile, crowd.zones));
        EXPECT_EQ(dossier.flat, oracle::is_flat(profile, crowd.zones)) << "user " << dossier.user;
      }
    }
  }
}

}  // namespace
}  // namespace tzgeo::core
