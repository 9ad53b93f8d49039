// Regression tests from the static-analysis bug sweep: numeric identities
// that tie the fast fixed-width kernels to their reference definitions, and
// edge cases in placement_confidence / filter_flat_profiles around the
// even/odd-median and serial/parallel-cutoff boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/flat_filter.hpp"
#include "core/placement.hpp"
#include "core/profile.hpp"
#include "core/timezone_profiles.hpp"
#include "stats/emd.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

/// A random normalized 24-bin profile.
[[nodiscard]] std::vector<double> random_profile(util::Rng& rng) {
  std::vector<double> bins(stats::kEmdFixedBins);
  double total = 0.0;
  for (double& b : bins) {
    b = rng.uniform();
    total += b;
  }
  for (double& b : bins) b /= total;
  return bins;
}

/// Reference circular work: min over candidate offsets k of sum |D_i - k|.
/// The optimum is attained at a median of D, so scanning every D_j as the
/// offset covers the minimizer without assuming the half-sum shortcut.
[[nodiscard]] double circular_work_reference(const std::vector<double>& diffs) {
  double best = std::numeric_limits<double>::infinity();
  for (const double k : diffs) {
    double work = 0.0;
    for (const double d : diffs) work += std::abs(d - k);
    best = std::min(best, work);
  }
  return best;
}

TEST(EmdIdentities, CircularHalfSumMatchesMedianReference) {
  util::Rng rng{101};
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<double> p = random_profile(rng);
    const std::vector<double> q = random_profile(rng);

    std::vector<double> diffs(stats::kEmdFixedBins);
    double carried = 0.0;
    for (std::size_t i = 0; i < diffs.size(); ++i) {
      carried += p[i] - q[i];
      diffs[i] = carried;
    }

    const double reference = circular_work_reference(diffs);
    std::vector<double> scratch = diffs;
    const double half_sum = stats::circular_work_24(scratch.data());
    EXPECT_NEAR(half_sum, reference, 1e-12);
  }
}

TEST(EmdIdentities, FixedKernelsMatchSpanVariants) {
  util::Rng rng{202};
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<double> p = random_profile(rng);
    const std::vector<double> q = random_profile(rng);
    EXPECT_NEAR(stats::emd_circular_24(p.data(), q.data()), stats::emd_circular(p, q), 1e-12);
  }
}

TEST(EmdIdentities, CircularNeverExceedsLinearAndBoundNeverExceedsExact) {
  util::Rng rng{303};
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<double> p = random_profile(rng);
    const std::vector<double> q = random_profile(rng);

    const double linear = stats::emd_linear(p, q);
    const double circular = stats::emd_circular_24(p.data(), q.data());
    EXPECT_LE(circular, linear + 1e-12);

    double cdf_p[stats::kEmdFixedBins];
    double cdf_q[stats::kEmdFixedBins];
    double diff[stats::kEmdFixedBins];
    stats::prefix_sums_24(p.data(), cdf_p);
    stats::prefix_sums_24(q.data(), cdf_q);
    const double bound = stats::cdf_diff_bound_24(cdf_p, cdf_q, diff);
    EXPECT_LE(bound, circular + 1e-12);
  }
}

TEST(EmdIdentities, CircularIsRotationInvariant) {
  util::Rng rng{404};
  const std::vector<double> p = random_profile(rng);
  const std::vector<double> q = random_profile(rng);
  const double base = stats::emd_circular_24(p.data(), q.data());
  for (std::size_t shift = 1; shift < stats::kEmdFixedBins; ++shift) {
    std::vector<double> pr(p.size());
    std::vector<double> qr(q.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      pr[(i + shift) % p.size()] = p[i];
      qr[(i + shift) % q.size()] = q[i];
    }
    EXPECT_NEAR(stats::emd_circular_24(pr.data(), qr.data()), base, 1e-12);
  }
}

/// A placement with hand-picked margins, for the confidence edge cases.
[[nodiscard]] PlacementResult placement_with_margins(const std::vector<double>& margins) {
  PlacementResult result;
  for (std::size_t i = 0; i < margins.size(); ++i) {
    UserPlacement user;
    user.user = i;
    user.distance = 1.0;
    user.runner_up_distance = 1.0 + margins[i];
    result.users.push_back(user);
  }
  return result;
}

TEST(PlacementConfidenceEdges, EmptyPlacementIsAllZero) {
  const PlacementConfidence confidence = placement_confidence(PlacementResult{});
  EXPECT_EQ(confidence.mean_margin, 0.0);
  EXPECT_EQ(confidence.median_margin, 0.0);
  EXPECT_EQ(confidence.decisive_fraction, 0.0);
}

TEST(PlacementConfidenceEdges, OddCountMedianIsMiddleElement) {
  const PlacementConfidence confidence =
      placement_confidence(placement_with_margins({0.5, 0.1, 0.3}));
  EXPECT_DOUBLE_EQ(confidence.median_margin, 0.3);
  EXPECT_NEAR(confidence.mean_margin, 0.3, 1e-12);
}

TEST(PlacementConfidenceEdges, EvenCountMedianAveragesMiddlePair) {
  const PlacementConfidence confidence =
      placement_confidence(placement_with_margins({0.4, 0.1, 0.2, 0.3}));
  EXPECT_DOUBLE_EQ(confidence.median_margin, 0.25);
}

TEST(PlacementConfidenceEdges, SingleUserMedianEqualsItsMargin) {
  const PlacementConfidence confidence = placement_confidence(placement_with_margins({0.7}));
  EXPECT_DOUBLE_EQ(confidence.median_margin, 0.7);
  EXPECT_DOUBLE_EQ(confidence.mean_margin, 0.7);
}

TEST(PlacementConfidenceEdges, DecisiveThresholdIsTenPercentOfDistance) {
  // distance 1.0 everywhere: margins of 0.05 / 0.15 straddle the 10% bar.
  const PlacementConfidence confidence =
      placement_confidence(placement_with_margins({0.05, 0.15}));
  EXPECT_DOUBLE_EQ(confidence.decisive_fraction, 0.5);
}

TEST(PlacementConfidenceEdges, ExactMatchCountsAsDecisiveOnlyWithPositiveMargin) {
  PlacementResult result;
  UserPlacement exact;  // distance 0, positive margin: decisive
  exact.distance = 0.0;
  exact.runner_up_distance = 0.2;
  result.users.push_back(exact);
  UserPlacement tie;  // distance 0, zero margin: not decisive
  tie.distance = 0.0;
  tie.runner_up_distance = 0.0;
  result.users.push_back(tie);
  const PlacementConfidence confidence = placement_confidence(result);
  EXPECT_DOUBLE_EQ(confidence.decisive_fraction, 0.5);
}

/// A diurnal-looking generic profile: active 9..23, quiet overnight.
[[nodiscard]] TimeZoneProfiles diurnal_zones() {
  std::vector<double> bins(kProfileBins, 0.0);
  for (std::size_t h = 9; h < kProfileBins; ++h) {
    bins[h] = 1.0 + 0.5 * static_cast<double>(h % 5);
  }
  return TimeZoneProfiles{HourlyProfile::from_counts(bins)};
}

/// A crowd mixing sharply-peaked users (kept) and uniform users (removed).
[[nodiscard]] std::vector<UserProfileEntry> mixed_crowd(std::size_t count) {
  std::vector<UserProfileEntry> users;
  users.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> bins(kProfileBins, 0.0);
    if (i % 3 == 0) {
      bins.assign(kProfileBins, 1.0);  // flat: closer to uniform
    } else {
      bins[i % kProfileBins] = 1.0;  // spike: closer to some zone
    }
    users.push_back(UserProfileEntry{i, 1, HourlyProfile::from_counts(bins)});
  }
  return users;
}

TEST(FlatFilterEdges, PartitionIsStableAcrossParallelCutoff) {
  // 255 / 256 / 257 users straddle the serial-vs-parallel cutoff; the
  // kept/removed split must be identical in content and order either way.
  const TimeZoneProfiles zones = diurnal_zones();
  for (const std::size_t count : {std::size_t{255}, std::size_t{256}, std::size_t{257}}) {
    const std::vector<UserProfileEntry> users = mixed_crowd(count);
    const FlatFilterResult split = filter_flat_profiles(users, zones);
    EXPECT_EQ(split.kept.size() + split.removed.size(), count);

    // Order-preserving partition: user ids within each side stay ascending.
    for (const auto& side : {split.kept, split.removed}) {
      for (std::size_t i = 1; i < side.size(); ++i) {
        EXPECT_LT(side[i - 1].user, side[i].user);
      }
    }
    // Every flat (uniform) user must be removed.
    for (const auto& entry : split.removed) EXPECT_EQ(entry.user % 3, 0u);
    for (const auto& entry : split.kept) EXPECT_NE(entry.user % 3, 0u);
  }
}

TEST(FlatFilterEdges, EmptyCrowdYieldsEmptySplit) {
  const TimeZoneProfiles zones = diurnal_zones();
  const FlatFilterResult split = filter_flat_profiles({}, zones);
  EXPECT_TRUE(split.kept.empty());
  EXPECT_TRUE(split.removed.empty());
}

}  // namespace
}  // namespace tzgeo::core
