// Scalar reference backend: kLanes plain doubles per Reg.
//
// This is the model the vector backends must match bit-for-bit.  Each
// operation is written in the exact form the per-user kernels in
// stats/emd.hpp use — in particular min/max are the `?:` selections of
// stats::detail::compare_exchange, which agree with minpd/maxpd and
// fmin/fmax-free NEON vminq/vmaxq on every input this domain produces
// (no NaNs; -0.0 cannot arise from CDF differences of equal-mass
// distributions, see DESIGN.md §12).
#pragma once

#include <cmath>
#include <cstddef>

#include "core/simd/simd.hpp"

namespace tzgeo::core::simd {

struct VecScalar {
  struct Reg {
    double v[kLanes];
  };
  struct Mask {
    bool m[kLanes];
  };

  [[nodiscard]] static Reg load(const double* p) noexcept {
    Reg r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = p[l];
    return r;
  }
  static void store(double* p, Reg r) noexcept {
    for (std::size_t l = 0; l < kLanes; ++l) p[l] = r.v[l];
  }
  [[nodiscard]] static Reg broadcast(double x) noexcept {
    Reg r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = x;
    return r;
  }
  [[nodiscard]] static Reg zero() noexcept { return broadcast(0.0); }

  [[nodiscard]] static Reg add(Reg a, Reg b) noexcept {
    Reg r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  [[nodiscard]] static Reg sub(Reg a, Reg b) noexcept {
    Reg r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
  }
  [[nodiscard]] static Reg min(Reg a, Reg b) noexcept {
    Reg r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] < b.v[l] ? a.v[l] : b.v[l];
    return r;
  }
  [[nodiscard]] static Reg max(Reg a, Reg b) noexcept {
    Reg r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] < b.v[l] ? b.v[l] : a.v[l];
    return r;
  }
  [[nodiscard]] static Reg abs(Reg a) noexcept {
    Reg r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = std::abs(a.v[l]);
    return r;
  }

  [[nodiscard]] static Mask lt(Reg a, Reg b) noexcept {
    Mask r;
    for (std::size_t l = 0; l < kLanes; ++l) r.m[l] = a.v[l] < b.v[l];
    return r;
  }
  [[nodiscard]] static Mask ge(Reg a, Reg b) noexcept {
    Mask r;
    for (std::size_t l = 0; l < kLanes; ++l) r.m[l] = a.v[l] >= b.v[l];
    return r;
  }
  [[nodiscard]] static Mask andnot(Mask a, Mask b) noexcept {
    Mask r;
    for (std::size_t l = 0; l < kLanes; ++l) r.m[l] = !a.m[l] && b.m[l];
    return r;
  }
  [[nodiscard]] static Reg blend(Reg a, Reg b, Mask m) noexcept {
    Reg r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = m.m[l] ? b.v[l] : a.v[l];
    return r;
  }
  [[nodiscard]] static bool all_true(Mask m) noexcept {
    bool all = true;
    for (std::size_t l = 0; l < kLanes; ++l) all = all && m.m[l];
    return all;
  }
  /// Smallest lane value.  Only steers the circular kernel's evaluation
  /// ORDER (never its results), but every backend reduces the same way so
  /// the per-path pruning counters stay comparable.
  [[nodiscard]] static double reduce_min(Reg a) noexcept {
    double m = a.v[0];
    for (std::size_t l = 1; l < kLanes; ++l) m = a.v[l] < m ? a.v[l] : m;
    return m;
  }
};

}  // namespace tzgeo::core::simd
