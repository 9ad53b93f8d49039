// Generic circular-EMD group kernels, instantiated once per dispatch path.
//
// Every backend (scalar, AVX2, AVX-512, NEON) includes this header and
// instantiates the templates below with its own lane-abstraction type V.
// That single source of truth is the bit-identity guarantee: all paths
// execute the same per-zone operation sequence — the only difference is
// how many hardware registers carry the kLanes lanes — and the arithmetic
// is limited to add/sub/min/max/abs/compare/blend, which are exact (no
// reassociation, no FMA contraction), so lane l of a group kernel
// produces exactly the bits of the scalar circular kernels in
// stats/emd.hpp run on user l.
//
// Zone-level SCHEDULING, by contrast, is free: which zones get evaluated
// in which order only has to preserve the final (distance, runner-up,
// zone) triple.  place_circular exploits that with best-bound-first
// evaluation and a margin prune; per-zone arithmetic order never changes.
// row_circular is the same exact evaluation against one row (the Section
// IV-C uniform profile).
//
// The V concept (see vec_scalar.hpp for the reference model):
//   using Reg  — kLanes doubles
//   using Mask — a per-lane boolean set
//   load(p) / store(p, r)            aligned kLanes-double transfers
//   broadcast(x), zero()
//   add, sub, min, max, abs          lane-wise; min/max match `a < b ? a : b`
//                                    / `a > b ? a : b` (the ?: forms the
//                                    scalar kernels compile to)
//   lt(a, b), ge(a, b)               lane-wise compares producing a Mask
//   blend(a, b, m)                   lane-wise m ? b : a
//   andnot(m, n)                     lane-wise !m && n
//   all_true(m)                      every lane set
//   reduce_min(r)                    smallest lane (ordering heuristic only)
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/constants.hpp"
#include "core/simd/simd.hpp"
#include "stats/emd.hpp"

namespace tzgeo::core::simd::impl {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Margin added to the running runner-up before a zone may be pruned on
/// its lower bound.  Why this makes the prune rigorous in floating point:
/// every quantity involved is a sum of at most kProfileBins terms, each
/// term an |x - y| of CDF values in [0, 1] (so each partial sum is in
/// [0, 24]).  A rounding-error bound for such a sum is
/// n * eps * max_partial <= 24 * 2^-52 * 24 < 1.3e-13, so both the
/// computed bound and the computed runner-up are within ~1.3e-13 of their
/// exact values.  If fl(bound) >= fl(runner) + 1e-12 then
/// exact(bound) > exact(runner), i.e. the zone's exact distance is
/// STRICTLY worse than a value already seen — it can influence neither
/// the minimum, the runner-up, nor the argmin tie-break (ties are never
/// pruned: a tying zone's bound cannot clear the strict margin).  The
/// margin therefore also frees the bound's own floating-point FORM: any
/// expression within ~1.3e-13 of the exact bound works, which is what
/// legalizes the hoisted pair-difference rewrite in place_circular.
///
/// The triangle-inequality leg fits the same budget: circular EMD is a
/// metric (the quotient L1 norm of CDF differences modulo constants), so
/// exactly D(seed, z) - dist(user, seed) <= dist(user, z).  The computed
/// form substitutes the engine's precomputed D entry (scalar-kernel
/// rounding, < 1.3e-13), the seed distance already evaluated by this
/// kernel (< 1.3e-13), and one subtraction in [-24, 24] (one ulp,
/// ~2.7e-15) — a total well under the 1e-12 margin.
inline constexpr double kPruneMargin = 1e-12;

/// plane b, lane 0 of the group at `base`.
[[nodiscard]] inline const double* plane(const double* planes, std::size_t stride,
                                         std::size_t base, std::size_t bin) noexcept {
  return planes + bin * stride + base;
}

/// The per-user nearest/runner-up update (strict <, so the first bin
/// attaining the minimum wins), lane-wise:
///   if (d < dist)        { runner = dist; dist = d; zone = bin; }
///   else if (d < runner) { runner = d; }
template <class V>
inline void update_best(typename V::Reg& dist, typename V::Reg& runner,
                        typename V::Reg& zone, typename V::Reg d,
                        typename V::Reg bin) noexcept {
  const typename V::Mask is_best = V::lt(d, dist);
  const typename V::Mask is_runner = V::andnot(is_best, V::lt(d, runner));
  runner = V::blend(runner, dist, is_best);
  runner = V::blend(runner, d, is_runner);
  dist = V::blend(dist, d, is_best);
  zone = V::blend(zone, bin, is_best);
}

/// Lane-wise branchless compare-exchange: (a, b) <- (min, max), with the
/// same `?:` selection semantics as stats::detail::compare_exchange.
template <class V>
inline void compare_exchange(typename V::Reg& a, typename V::Reg& b) noexcept {
  const typename V::Reg lo = V::min(a, b);
  b = V::max(a, b);
  a = lo;
}

template <class V, std::size_t... I>
inline void sort_diffs(typename V::Reg* diff, std::index_sequence<I...>) noexcept {
  (compare_exchange<V>(diff[stats::kCircularSortSchedule24[I].first],
                       diff[stats::kCircularSortSchedule24[I].second]),
   ...);
}

/// Exact circular work of the group's prefix-difference sequences:
/// Batcher sort (the same compile-time comparator schedule as the scalar
/// kernel), then upper-half sum minus lower-half sum, summed in the same
/// ascending order as stats::circular_work_24.  Clobbers `diff`.
template <class V>
[[nodiscard]] inline typename V::Reg circular_work(typename V::Reg* diff) noexcept {
  sort_diffs<V>(diff, std::make_index_sequence<stats::kCircularSortSchedule24.size()>{});
  typename V::Reg lower = V::zero();
  typename V::Reg upper = V::zero();
  for (std::size_t i = 0; i < kProfileBins / 2; ++i) {
    lower = V::add(lower, diff[i]);
    upper = V::add(upper, diff[i + kProfileBins / 2]);
  }
  return V::sub(upper, lower);
}

/// Exact circular work of the group against one zone's CDF row.
template <class V>
[[nodiscard]] inline typename V::Reg eval_work(const double* planes, std::size_t stride,
                                               std::size_t base,
                                               const double* row_cdf) noexcept {
  typename V::Reg diff[kProfileBins];
  for (std::size_t i = 0; i < kProfileBins; ++i) {
    diff[i] = V::sub(V::load(plane(planes, stride, base, i)), V::broadcast(row_cdf[i]));
  }
  return circular_work<V>(diff);
}

/// Two independent exact circular evaluations with interleaved
/// instruction streams: the two sorting networks are pure latency chains
/// (each compare-exchange depends on the previous level), so pairing them
/// roughly doubles throughput without touching either chain's own
/// operation order — each stream's arithmetic is bit-identical to a solo
/// eval_work run.
template <class V>
inline void eval_work2(const double* planes, std::size_t stride, std::size_t base,
                       const double* row_a, const double* row_b, typename V::Reg& out_a,
                       typename V::Reg& out_b) noexcept {
  typename V::Reg da[kProfileBins];
  typename V::Reg db[kProfileBins];
  for (std::size_t i = 0; i < kProfileBins; ++i) {
    const typename V::Reg p = V::load(plane(planes, stride, base, i));
    da[i] = V::sub(p, V::broadcast(row_a[i]));
    db[i] = V::sub(p, V::broadcast(row_b[i]));
  }
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((compare_exchange<V>(da[stats::kCircularSortSchedule24[I].first],
                          da[stats::kCircularSortSchedule24[I].second]),
      compare_exchange<V>(db[stats::kCircularSortSchedule24[I].first],
                          db[stats::kCircularSortSchedule24[I].second])),
     ...);
  }(std::make_index_sequence<stats::kCircularSortSchedule24.size()>{});
  typename V::Reg lower_a = V::zero();
  typename V::Reg upper_a = V::zero();
  typename V::Reg lower_b = V::zero();
  typename V::Reg upper_b = V::zero();
  for (std::size_t i = 0; i < kProfileBins / 2; ++i) {
    lower_a = V::add(lower_a, da[i]);
    upper_a = V::add(upper_a, da[i + kProfileBins / 2]);
    lower_b = V::add(lower_b, db[i]);
    upper_b = V::add(upper_b, db[i + kProfileBins / 2]);
  }
  out_a = V::sub(upper_a, lower_a);
  out_b = V::sub(upper_b, lower_b);
}

// --- The KernelTable entry points -----------------------------------------

static_assert(kZoneCount % 4 == 0, "the x4 bound blocks below assume it");

/// Circular EMD with best-bound-first evaluation and the margin prune.
///
/// Result-preservation argument (scheduling changes only — per-zone
/// arithmetic is eval_work/eval_work2, identical to the in-order kernel):
///   * The minimum and runner-up of a set of per-zone distances are
///     multiset values — independent of evaluation order.  The reported
///     zone is the FIRST bin attaining the minimum; the final reduction
///     below replays the evaluated zones in ascending bin order through
///     the same update_best, restoring exactly that tie-break.
///   * A zone is pruned only when, in every lane, its lower bound clears
///     the current runner-up estimate by kPruneMargin — which (see the
///     margin's comment) proves its exact distance strictly exceeds a
///     distance already seen, so dropping it from the reduction changes
///     neither min, runner-up, nor the first-tie bin.
///   * bounds/reduce_min/the ring walk only pick the ORDER; a bad pick
///     costs evaluations, never correctness.
/// The walk starts at the zone with the smallest per-lane bound and rings
/// outward (m, m+1, m-1, m+2, ...): circular EMD varies smoothly with
/// zone offset, so the true nearest zone is almost always within one hop
/// of the best bound and the runner-up estimate tightens immediately,
/// which is what lets the margin prune discard most of the other 22.
template <class V>
// tzgeo: hot
void place_circular(const double* planes, std::size_t stride, std::size_t base,
                    const double* zone_rows, GroupPlacement& out,
                    GroupStats& stats) noexcept {
  // Hoisted pair differences pd_i = P_i - P_{i+12}: the exact pair bound
  // sums |(P_i - Q_i) - (P_{i+12} - Q_{i+12})|, which equals
  // |pd_i - qd_i| in real arithmetic (qd precomputed per zone in the
  // engine's zone_rows).  The two floating-point forms differ by at most
  // the summation error budget the margin already covers.
  typename V::Reg pd[kProfileBins / 2];
  for (std::size_t i = 0; i < kProfileBins / 2; ++i) {
    pd[i] = V::sub(V::load(plane(planes, stride, base, i)),
                   V::load(plane(planes, stride, base, i + kProfileBins / 2)));
  }
  alignas(64) double bounds[kZoneCount][kLanes];
  double bmin[kZoneCount];
  for (std::size_t bin = 0; bin < kZoneCount; bin += 4) {
    typename V::Reg b[4] = {V::zero(), V::zero(), V::zero(), V::zero()};
    for (std::size_t i = 0; i < kProfileBins / 2; ++i) {
      for (std::size_t k = 0; k < 4; ++k) {
        const double* qd = zone_rows + (bin + k) * kCircularZoneRowPitch + kProfileBins;
        b[k] = V::add(b[k], V::abs(V::sub(pd[i], V::broadcast(qd[i]))));
      }
    }
    for (std::size_t k = 0; k < 4; ++k) {
      V::store(bounds[bin + k], b[k]);
      bmin[bin + k] = V::reduce_min(b[k]);
    }
  }

  std::size_t m = 0;
  for (std::size_t bin = 1; bin < kZoneCount; ++bin) {
    if (bmin[bin] < bmin[m]) m = bin;
  }
  std::size_t m2 = m == 0 ? 1 : 0;
  for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
    if (bin != m && bmin[bin] < bmin[m2]) m2 = bin;
  }
  std::uint8_t ord[kZoneCount];
  ord[0] = static_cast<std::uint8_t>(m);
  for (std::size_t step = 1, at = 1; step <= kZoneCount / 2; ++step) {
    ord[at++] = static_cast<std::uint8_t>((m + step) % kZoneCount);
    // step == kZoneCount/2 lands on the same zone from both sides.
    if (at < kZoneCount) {
      ord[at++] = static_cast<std::uint8_t>((m + kZoneCount - step) % kZoneCount);
    }
  }
  // Promote the second-smallest bound into the second walk slot: the two
  // unconditional seed evaluations then cover the two likeliest best/runner
  // zones, so the cutoff starts tight and the ring sweep prunes harder.
  for (std::size_t idx = 1; idx < kZoneCount; ++idx) {
    if (ord[idx] == m2) {
      std::swap(ord[1], ord[idx]);
      break;
    }
  }

  // The first two walk zones can never be pruned (the runner-up starts at
  // infinity), so evaluate them unconditionally with interleaved chains —
  // this also breaks the evaluate -> prune-check serialization for the
  // rest of the walk, because a real runner-up estimate exists before the
  // first conditional zone is reached.
  alignas(64) double works[kZoneCount][kLanes];
  typename V::Reg w0;
  typename V::Reg w1;
  eval_work2<V>(planes, stride, base, zone_rows + ord[0] * kCircularZoneRowPitch,
                zone_rows + ord[1] * kCircularZoneRowPitch, w0, w1);
  V::store(works[ord[0]], w0);
  V::store(works[ord[1]], w1);
  std::uint32_t evaluated = (1u << ord[0]) | (1u << ord[1]);
  std::uint64_t evals = 2;

  // Order-dependent ESTIMATES (bins not tracked): only the runner-up
  // estimate is consumed, as the prune cutoff.  For any evaluation order
  // the estimate is >= some evaluated zone's distance, which is all the
  // margin argument needs.
  typename V::Reg dist_est = V::broadcast(kInf);
  typename V::Reg runner_est = V::broadcast(kInf);
  typename V::Reg zone_scratch = V::zero();
  update_best<V>(dist_est, runner_est, zone_scratch, w0, V::zero());
  update_best<V>(dist_est, runner_est, zone_scratch, w1, V::zero());
  typename V::Reg cutoff = V::add(runner_est, V::broadcast(kPruneMargin));

  // Second prune leg: the metric triangle inequality through the first
  // seed zone.  dist(user, z) >= D[ord[0]][z] - dist(user, ord[0]) holds
  // exactly in real arithmetic (circular EMD is a metric), and w0 is that
  // seed distance, already exact per lane — so for users that sit close to
  // their best zone this bound approaches the inter-zone distance itself
  // and is usually far tighter than the pair bound.
  const double* pair_row = zone_rows + kCircularZonePairOffset + ord[0] * kZoneCount;
  for (std::size_t idx = 2; idx < kZoneCount; ++idx) {
    const std::size_t pick = ord[idx];
    if (V::all_true(V::ge(V::load(bounds[pick]), cutoff))) continue;
    if (V::all_true(V::ge(V::sub(V::broadcast(pair_row[pick]), w0), cutoff))) continue;
    ++evals;
    const typename V::Reg work =
        eval_work<V>(planes, stride, base, zone_rows + pick * kCircularZoneRowPitch);
    V::store(works[pick], work);
    evaluated |= 1u << pick;
    update_best<V>(dist_est, runner_est, zone_scratch, work, V::zero());
    cutoff = V::add(runner_est, V::broadcast(kPruneMargin));
  }
  stats.zone_groups_evaluated += evals;
  stats.zone_groups_pruned += kZoneCount - evals;

  // Final reduction in ascending bin order over the evaluated set: the
  // same update_best sequence the in-order kernel runs, minus zones
  // proven unable to affect it.
  typename V::Reg dist = V::broadcast(kInf);
  typename V::Reg runner = V::broadcast(kInf);
  typename V::Reg zone = V::zero();
  for (std::uint32_t mask = evaluated; mask != 0; mask &= mask - 1) {
    const auto bin = static_cast<std::size_t>(__builtin_ctz(mask));
    update_best<V>(dist, runner, zone, V::load(works[bin]),
                   V::broadcast(static_cast<double>(bin)));
  }
  V::store(out.distance, dist);
  V::store(out.runner_up, runner);
  V::store(out.zone_bin, zone);
}

template <class V>
// tzgeo: hot
void row_circular(const double* planes, std::size_t stride, std::size_t base,
                  const double* row_cdf, double* out) noexcept {
  V::store(out, eval_work<V>(planes, stride, base, row_cdf));
}

/// The full table of one backend.
template <class V>
[[nodiscard]] constexpr KernelTable make_table() noexcept {
  return KernelTable{&place_circular<V>, &row_circular<V>};
}

}  // namespace tzgeo::core::simd::impl
