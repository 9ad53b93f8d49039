// Fixed-width 24-bin circular-EMD kernels (the scalar reference of the
// placement kernels) against the general-purpose span implementations,
// and the span metrics ablation A places with against their definitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/emd.hpp"
#include "util/rng.hpp"

namespace tzgeo::stats {
namespace {

constexpr std::size_t kPairs = 1000;

[[nodiscard]] std::vector<double> random_profile(util::Rng& rng) {
  std::vector<double> values(kEmdFixedBins);
  double total = 0.0;
  for (double& v : values) {
    v = rng.uniform();
    total += v;
  }
  for (double& v : values) v /= total;
  return values;
}

TEST(EmdKernels, LinearMatchesGeneralOnRandomPairs) {
  // The span linear EMD against its CDF form, sum_i |P_i - Q_i|.
  util::Rng rng{101};
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto p = random_profile(rng);
    const auto q = random_profile(rng);
    double cdf_p[kEmdFixedBins];
    double cdf_q[kEmdFixedBins];
    prefix_sums_24(p.data(), cdf_p);
    prefix_sums_24(q.data(), cdf_q);
    double work = 0.0;
    for (std::size_t b = 0; b < kEmdFixedBins; ++b) work += std::abs(cdf_p[b] - cdf_q[b]);
    EXPECT_NEAR(emd_linear(p, q), work, 1e-9);
  }
}

TEST(EmdKernels, CircularMatchesGeneralOnRandomPairs) {
  util::Rng rng{102};
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto p = random_profile(rng);
    const auto q = random_profile(rng);
    EXPECT_NEAR(emd_circular_24(p.data(), q.data()), emd_circular(p, q), 1e-9);
  }
}

TEST(EmdKernels, TotalVariationMatchesGeneralOnRandomPairs) {
  // The span total variation against its bin form, 0.5 * sum_i |p_i - q_i|.
  util::Rng rng{103};
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto p = random_profile(rng);
    const auto q = random_profile(rng);
    double sum = 0.0;
    for (std::size_t b = 0; b < kEmdFixedBins; ++b) sum += std::abs(p[b] - q[b]);
    EXPECT_NEAR(total_variation(p, q), 0.5 * sum, 1e-12);
  }
}

TEST(EmdKernels, CdfVariantsBitIdenticalToPairwise) {
  // The batched path (precomputed CDFs) and the pairwise convenience
  // kernel must produce the same bits — placement relies on it.
  util::Rng rng{104};
  for (std::size_t i = 0; i < 200; ++i) {
    const auto p = random_profile(rng);
    const auto q = random_profile(rng);
    double cdf_p[kEmdFixedBins];
    double cdf_q[kEmdFixedBins];
    double scratch[kEmdFixedBins];
    prefix_sums_24(p.data(), cdf_p);
    prefix_sums_24(q.data(), cdf_q);
    EXPECT_EQ(emd_circular_cdf_24(cdf_p, cdf_q, scratch),
              emd_circular_24(p.data(), q.data()));
  }
}

TEST(EmdKernels, PrefixSumsEndAtTotalMass) {
  util::Rng rng{105};
  const auto p = random_profile(rng);
  double cdf[kEmdFixedBins];
  prefix_sums_24(p.data(), cdf);
  EXPECT_NEAR(cdf[kEmdFixedBins - 1], 1.0, 1e-12);
  for (std::size_t i = 1; i < kEmdFixedBins; ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
}

TEST(EmdKernels, SortingNetworkSortsRandomArrays) {
  util::Rng rng{106};
  for (std::size_t i = 0; i < 500; ++i) {
    double values[kEmdFixedBins];
    for (double& v : values) v = rng.uniform(-1.0, 1.0);
    std::vector<double> reference(values, values + kEmdFixedBins);
    std::sort(reference.begin(), reference.end());
    detail::sort_24(values);
    for (std::size_t j = 0; j < kEmdFixedBins; ++j) EXPECT_EQ(values[j], reference[j]);
  }
}

TEST(EmdKernels, CircularWorkMatchesMedianFormula) {
  // sum |D_i - median(D)| computed naively, against the sorted-half-sum
  // identity used by circular_work_24.
  util::Rng rng{107};
  for (std::size_t i = 0; i < 500; ++i) {
    double diff[kEmdFixedBins];
    for (double& v : diff) v = rng.uniform(-1.0, 1.0);
    std::vector<double> sorted(diff, diff + kEmdFixedBins);
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[kEmdFixedBins / 2];  // upper median, as emd_circular
    double naive = 0.0;
    for (const double v : sorted) naive += std::abs(v - median);
    EXPECT_NEAR(circular_work_24(diff), naive, 1e-12);
  }
}

TEST(EmdKernels, LowerBoundNeverExceedsExactWork) {
  util::Rng rng{108};
  for (std::size_t i = 0; i < kPairs; ++i) {
    double diff[kEmdFixedBins];
    for (double& v : diff) v = rng.uniform(-1.0, 1.0);
    const double bound = circular_work_lower_bound_24(diff);
    const double exact = circular_work_24(diff);  // clobbers diff, bound taken first
    EXPECT_LE(bound, exact + 1e-12);
  }
}

TEST(EmdKernels, FusedDiffBoundMatchesSeparateCalls) {
  util::Rng rng{109};
  for (std::size_t i = 0; i < 200; ++i) {
    const auto p = random_profile(rng);
    const auto q = random_profile(rng);
    double cdf_p[kEmdFixedBins];
    double cdf_q[kEmdFixedBins];
    prefix_sums_24(p.data(), cdf_p);
    prefix_sums_24(q.data(), cdf_q);
    double expected_diff[kEmdFixedBins];
    cdf_diff_24(cdf_p, cdf_q, expected_diff);
    const double expected_bound = circular_work_lower_bound_24(expected_diff);
    double fused_diff[kEmdFixedBins];
    const double fused_bound = cdf_diff_bound_24(cdf_p, cdf_q, fused_diff);
    EXPECT_EQ(fused_bound, expected_bound);
    for (std::size_t j = 0; j < kEmdFixedBins; ++j) {
      EXPECT_EQ(fused_diff[j], expected_diff[j]);
    }
  }
}

TEST(EmdKernels, IdenticalProfilesAreZeroDistance) {
  util::Rng rng{110};
  const auto p = random_profile(rng);
  EXPECT_DOUBLE_EQ(emd_linear(p, p), 0.0);
  EXPECT_DOUBLE_EQ(emd_circular_24(p.data(), p.data()), 0.0);
  EXPECT_DOUBLE_EQ(total_variation(p, p), 0.0);
}

}  // namespace
}  // namespace tzgeo::stats
