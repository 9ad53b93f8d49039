// Earth Mover's Distance (1-Wasserstein) between discrete distributions.
//
// The paper uses the EMD in three places: placing a user's hourly profile on
// the nearest time-zone profile (Section IV-A), filtering flat/bot profiles
// against the uniform distribution (Section IV-C), and matching seasonal
// profiles for the hemisphere test (Section V-F).
//
// Two variants are provided:
//  * emd_linear  — bins on a line; the classical prefix-sum formula
//                  EMD(p, q) = sum_i |P_i - Q_i| with P/Q the CDFs.
//  * emd_circular — bins on a circle of n positions (hours of the day wrap
//                  at midnight); Werman's result: the optimum equals
//                  sum_i |D_i - median(D)| with D the prefix-sum differences.
//
// Both require equal total mass (checked up to a tolerance) and return the
// work in units of (mass x bins).
//
// Placement hot path: the general span functions above validate their
// inputs and (for the circular variant) allocate two scratch vectors per
// call.  Placing one user costs 24 EMDs, so a crowd of N users pays ~50 N
// allocations.  The fixed-width 24-bin circular kernels below are the
// zero-allocation alternative: they skip validation (profiles are
// normalized by construction), work on caller-provided storage, and factor
// through CDFs so a batched caller can compute each profile's prefix sums
// once and reuse them across all 24 zone comparisons (the Werman–Peleg–
// Rosenfeld factorization).  The SIMD group kernels in core/simd run the
// same operation sequence lane by lane, so these kernels are the scalar
// reference every placement is bit-identical to.  The ablation metrics
// (linear EMD, total variation) use the span functions.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

#include "util/constants.hpp"

namespace tzgeo::stats {

/// Linear-axis EMD.  Throws std::invalid_argument on size or mass mismatch.
[[nodiscard]] double emd_linear(std::span<const double> p, std::span<const double> q);

/// Circular-axis EMD (bins wrap).  Throws on size or mass mismatch.
[[nodiscard]] double emd_circular(std::span<const double> p, std::span<const double> q);

/// Total-variation distance 0.5 * sum |p_i - q_i| (used in ablations).
[[nodiscard]] double total_variation(std::span<const double> p, std::span<const double> q);

// --- Fixed-width 24-bin kernels (zero-allocation placement hot path) ------
//
// Contract: every pointer addresses exactly kEmdFixedBins doubles; the two
// distributions carry equal total mass (hour profiles are normalized at
// construction).  No validation, no allocation, no exceptions.

/// Width of the fixed kernels: hour-of-day profiles.
inline constexpr std::size_t kEmdFixedBins = kProfileBins;

/// Inclusive prefix sums (the CDF) of a 24-bin distribution.
inline void prefix_sums_24(const double* p, double* cdf) noexcept {
  double run = 0.0;
  for (std::size_t i = 0; i < kEmdFixedBins; ++i) {
    run += p[i];
    cdf[i] = run;
  }
}

namespace detail {

/// Branchless compare-exchange (compiles to minsd/maxsd — no
/// data-dependent branch, so the placement inner loop cannot stall on
/// mispredicted quickselect pivots).
inline void compare_exchange(double& a, double& b) noexcept {
  const double lo = a < b ? a : b;
  const double hi = a < b ? b : a;
  a = lo;
  b = hi;
}

/// Comparator schedule of Batcher's merge-exchange sorting network for 24
/// inputs (Knuth, TAOCP 5.2.2 Algorithm M), generated at compile time.
template <typename Emit>
constexpr void batcher_24(Emit&& emit) {
  constexpr std::size_t n = kEmdFixedBins;
  constexpr std::size_t top = 16;  // 2^(ceil(log2 n) - 1)
  for (std::size_t p = top; p > 0; p >>= 1) {
    std::size_t q = top;
    std::size_t r = 0;
    std::size_t d = p;
    for (;;) {
      for (std::size_t i = 0; i + d < n; ++i) {
        if ((i & p) == r) emit(i, i + d);
      }
      if (q == p) break;
      d = q - p;
      q >>= 1;
      r = p;
    }
  }
}

consteval std::size_t batcher_24_size() {
  std::size_t count = 0;
  batcher_24([&](std::size_t, std::size_t) { ++count; });
  return count;
}

consteval auto batcher_24_pairs() {
  std::array<std::pair<std::uint8_t, std::uint8_t>, batcher_24_size()> pairs{};
  std::size_t at = 0;
  batcher_24([&](std::size_t a, std::size_t b) {
    pairs[at++] = {static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)};
  });
  return pairs;
}

inline constexpr auto kBatcher24 = batcher_24_pairs();

template <std::size_t... I>
inline void sort_24_unrolled(double* values, std::index_sequence<I...>) noexcept {
  (compare_exchange(values[kBatcher24[I].first], values[kBatcher24[I].second]), ...);
}

/// Branchless ascending sort of 24 doubles.  Fully unrolled at compile
/// time so every comparator addresses a fixed offset and the values stay
/// register-resident instead of bouncing through an index array.
inline void sort_24(double* values) noexcept {
  sort_24_unrolled(values, std::make_index_sequence<kBatcher24.size()>{});
}

}  // namespace detail

/// The comparator schedule of the 24-input sorting network, exposed so the
/// vectorized kernels in core/simd can execute the exact same
/// compare-exchange sequence (bit-identity across dispatch paths depends
/// on sorting with the identical network).
inline constexpr const auto& kCircularSortSchedule24 = detail::kBatcher24;

/// D = P - Q, the prefix-difference sequence of Werman's circular-EMD
/// formula, into 24 caller-provided doubles.
inline void cdf_diff_24(const double* cdf_p, const double* cdf_q, double* diff) noexcept {
  for (std::size_t i = 0; i < kEmdFixedBins; ++i) {
    diff[i] = cdf_p[i] - cdf_q[i];
  }
}

/// Cheap lower bound on the circular work of a prefix-difference sequence:
/// for the median m and any disjoint pairing, |D_i - m| + |D_j - m| >=
/// |D_i - D_j|, so twelve fixed pairs bound sum |D_i - m| from below.
/// The group placement kernel prunes zones with this bound (in its
/// hoisted pair-difference form); this is its scalar reference.
[[nodiscard]] inline double circular_work_lower_bound_24(const double* diff) noexcept {
  double bound = 0.0;
  for (std::size_t i = 0; i < kEmdFixedBins / 2; ++i) {
    bound += std::abs(diff[i] - diff[i + kEmdFixedBins / 2]);
  }
  return bound;
}

/// Fused cdf_diff_24 + circular_work_lower_bound_24: fills `diff` and
/// returns the pair bound in a single pass.
[[nodiscard]] inline double cdf_diff_bound_24(const double* cdf_p, const double* cdf_q,
                                              double* diff) noexcept {
  double bound = 0.0;
  for (std::size_t i = 0; i < kEmdFixedBins / 2; ++i) {
    const double lo = cdf_p[i] - cdf_q[i];
    const double hi = cdf_p[i + kEmdFixedBins / 2] - cdf_q[i + kEmdFixedBins / 2];
    diff[i] = lo;
    diff[i + kEmdFixedBins / 2] = hi;
    bound += std::abs(lo - hi);
  }
  return bound;
}

/// Exact circular work sum_i |D_i - median(D)| of a prefix-difference
/// sequence; clobbers `diff`.  With D sorted ascending the median term
/// cancels: the sum equals (upper-half sum) - (lower-half sum), so the
/// kernel is a branchless sort plus one scan — no quickselect.
[[nodiscard]] inline double circular_work_24(double* diff) noexcept {
  detail::sort_24(diff);
  double lower = 0.0;
  double upper = 0.0;
  for (std::size_t i = 0; i < kEmdFixedBins / 2; ++i) {
    lower += diff[i];
    upper += diff[i + kEmdFixedBins / 2];
  }
  return upper - lower;
}

/// Circular EMD from precomputed CDFs (Werman's result).  `scratch` is 24
/// caller-provided doubles, clobbered.
[[nodiscard]] inline double emd_circular_cdf_24(const double* cdf_p, const double* cdf_q,
                                                double* scratch) noexcept {
  cdf_diff_24(cdf_p, cdf_q, scratch);
  return circular_work_24(scratch);
}

/// Pairwise circular EMD over raw bins; CDFs live in stack buffers.
[[nodiscard]] inline double emd_circular_24(const double* p, const double* q) noexcept {
  double cdf_p[kEmdFixedBins];
  double cdf_q[kEmdFixedBins];
  double diff[kEmdFixedBins];
  prefix_sums_24(p, cdf_p);
  prefix_sums_24(q, cdf_q);
  return emd_circular_cdf_24(cdf_p, cdf_q, diff);
}

}  // namespace tzgeo::stats
