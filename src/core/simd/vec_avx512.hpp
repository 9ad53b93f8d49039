// AVX-512 backend: kLanes doubles carried in ONE 512-bit register.
//
// This is the preferred x86-64 path where available: the whole group fits
// a single zmm register, so the circular kernel's 24-register sorting
// working set is fully register-resident (32 zmm architectural registers)
// instead of spilling, and masks are real predicate registers (__mmask8)
// rather than lane-wide sign vectors.
//
// Exactness notes (why this matches VecScalar bit-for-bit):
//   * vaddpd/vsubpd are IEEE-exact per lane.
//   * vminpd/vmaxpd return the SECOND operand on equal/unordered lanes,
//     matching the scalar `?:` selections exactly (same semantics as the
//     AVX2 backend; see vec_avx2.hpp).
//   * _mm512_abs_pd clears the sign bit like std::abs.
//   * mask blends select whole lanes — no arithmetic.
// No multiplies besides the exact *0.5, so nothing can contract or
// reassociate.
#pragma once

#include <immintrin.h>

#include <cstddef>

#include "core/simd/simd.hpp"

namespace tzgeo::core::simd {

struct VecAvx512 {
  using Reg = __m512d;
  using Mask = __mmask8;  // one predicate bit per lane

  [[nodiscard]] static Reg load(const double* p) noexcept { return _mm512_load_pd(p); }
  static void store(double* p, Reg r) noexcept { _mm512_store_pd(p, r); }
  [[nodiscard]] static Reg broadcast(double x) noexcept { return _mm512_set1_pd(x); }
  [[nodiscard]] static Reg zero() noexcept { return _mm512_setzero_pd(); }

  [[nodiscard]] static Reg add(Reg a, Reg b) noexcept { return _mm512_add_pd(a, b); }
  [[nodiscard]] static Reg sub(Reg a, Reg b) noexcept { return _mm512_sub_pd(a, b); }
  [[nodiscard]] static Reg min(Reg a, Reg b) noexcept { return _mm512_min_pd(a, b); }
  [[nodiscard]] static Reg max(Reg a, Reg b) noexcept { return _mm512_max_pd(a, b); }
  [[nodiscard]] static Reg abs(Reg a) noexcept { return _mm512_abs_pd(a); }

  [[nodiscard]] static Mask lt(Reg a, Reg b) noexcept {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  [[nodiscard]] static Mask ge(Reg a, Reg b) noexcept {
    return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
  }
  [[nodiscard]] static Mask andnot(Mask a, Mask b) noexcept {
    return static_cast<Mask>(~a & b);
  }
  [[nodiscard]] static Reg blend(Reg a, Reg b, Mask m) noexcept {
    return _mm512_mask_blend_pd(m, a, b);
  }
  [[nodiscard]] static bool all_true(Mask m) noexcept { return m == 0xFF; }
  /// Smallest lane value (steers evaluation order only; see VecScalar).
  [[nodiscard]] static double reduce_min(Reg a) noexcept { return _mm512_reduce_min_pd(a); }
};

}  // namespace tzgeo::core::simd
