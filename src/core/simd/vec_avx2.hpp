// AVX2 backend: kLanes doubles carried in two 256-bit registers.
//
// Exactness notes (why this matches VecScalar bit-for-bit):
//   * vaddpd/vsubpd are IEEE-exact per lane — same bits as scalar +/-.
//   * vminpd/vmaxpd return the SECOND operand when the lanes are equal or
//     unordered, i.e. minpd(a,b) = a < b ? a : b and maxpd(a,b) =
//     b < a ? a : b — exactly the `?:` selections of the scalar kernels.
//   * abs is a sign-bit andnot with -0.0, identical to std::abs on any
//     non-NaN double.
//   * blendv selects whole lanes by mask sign bit — no arithmetic.
// No multiplies besides the exact *0.5, so -ffp-contract can never fuse
// anything and the compiler cannot reassociate (additions are sequential
// data dependencies).
#pragma once

#include <immintrin.h>

#include <cstddef>

#include "core/simd/simd.hpp"

namespace tzgeo::core::simd {

struct VecAvx2 {
  struct Reg {
    __m256d lo;  // lanes 0..3
    __m256d hi;  // lanes 4..7
  };
  using Mask = Reg;  // compare results: all-ones / all-zero lanes

  [[nodiscard]] static Reg load(const double* p) noexcept {
    return {_mm256_load_pd(p), _mm256_load_pd(p + 4)};
  }
  static void store(double* p, Reg r) noexcept {
    _mm256_store_pd(p, r.lo);
    _mm256_store_pd(p + 4, r.hi);
  }
  [[nodiscard]] static Reg broadcast(double x) noexcept {
    const __m256d v = _mm256_set1_pd(x);
    return {v, v};
  }
  [[nodiscard]] static Reg zero() noexcept {
    const __m256d v = _mm256_setzero_pd();
    return {v, v};
  }

  [[nodiscard]] static Reg add(Reg a, Reg b) noexcept {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  [[nodiscard]] static Reg sub(Reg a, Reg b) noexcept {
    return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
  }
  [[nodiscard]] static Reg min(Reg a, Reg b) noexcept {
    return {_mm256_min_pd(a.lo, b.lo), _mm256_min_pd(a.hi, b.hi)};
  }
  [[nodiscard]] static Reg max(Reg a, Reg b) noexcept {
    return {_mm256_max_pd(a.lo, b.lo), _mm256_max_pd(a.hi, b.hi)};
  }
  [[nodiscard]] static Reg abs(Reg a) noexcept {
    const __m256d sign = _mm256_set1_pd(-0.0);
    return {_mm256_andnot_pd(sign, a.lo), _mm256_andnot_pd(sign, a.hi)};
  }

  [[nodiscard]] static Mask lt(Reg a, Reg b) noexcept {
    return {_mm256_cmp_pd(a.lo, b.lo, _CMP_LT_OQ), _mm256_cmp_pd(a.hi, b.hi, _CMP_LT_OQ)};
  }
  [[nodiscard]] static Mask ge(Reg a, Reg b) noexcept {
    return {_mm256_cmp_pd(a.lo, b.lo, _CMP_GE_OQ), _mm256_cmp_pd(a.hi, b.hi, _CMP_GE_OQ)};
  }
  [[nodiscard]] static Mask andnot(Mask a, Mask b) noexcept {
    return {_mm256_andnot_pd(a.lo, b.lo), _mm256_andnot_pd(a.hi, b.hi)};
  }
  [[nodiscard]] static Reg blend(Reg a, Reg b, Mask m) noexcept {
    return {_mm256_blendv_pd(a.lo, b.lo, m.lo), _mm256_blendv_pd(a.hi, b.hi, m.hi)};
  }
  [[nodiscard]] static bool all_true(Mask m) noexcept {
    return _mm256_movemask_pd(_mm256_and_pd(m.lo, m.hi)) == 0xF;
  }
  /// Smallest lane value (steers evaluation order only; see VecScalar).
  [[nodiscard]] static double reduce_min(Reg a) noexcept {
    const __m256d m4 = _mm256_min_pd(a.lo, a.hi);
    const __m128d m2 = _mm_min_pd(_mm256_castpd256_pd128(m4), _mm256_extractf128_pd(m4, 1));
    const __m128d m1 = _mm_min_sd(m2, _mm_unpackhi_pd(m2, m2));
    return _mm_cvtsd_f64(m1);
  }
};

}  // namespace tzgeo::core::simd
