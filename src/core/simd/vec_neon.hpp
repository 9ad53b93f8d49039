// AArch64 NEON backend: kLanes doubles carried in four 128-bit registers.
//
// Exactness notes: vaddq/vsubq_f64 are IEEE-exact; vbslq selects whole
// lanes; vabsq_f64 clears the sign bit like std::abs.  vminq/vmaxq_f64
// follow IEEE minNum/maxNum for NaNs, but this domain is NaN-free, and on
// (-0.0, +0.0) pairs they differ from the scalar `?:` only in the sign of
// a zero — which cannot reach the result because distances are sums of
// absolute values and the sort operands (CDF differences) never produce
// -0.0 from x - x (IEEE: x - x = +0.0 in round-to-nearest).  min/max here
// therefore agree with VecScalar on every reachable input.
#pragma once

#include <arm_neon.h>

#include <cstddef>

#include "core/simd/simd.hpp"

namespace tzgeo::core::simd {

struct VecNeon {
  struct Reg {
    float64x2_t q[4];  // lanes 0..1, 2..3, 4..5, 6..7
  };
  struct Mask {
    uint64x2_t q[4];
  };

  [[nodiscard]] static Reg load(const double* p) noexcept {
    return {{vld1q_f64(p), vld1q_f64(p + 2), vld1q_f64(p + 4), vld1q_f64(p + 6)}};
  }
  static void store(double* p, Reg r) noexcept {
    vst1q_f64(p, r.q[0]);
    vst1q_f64(p + 2, r.q[1]);
    vst1q_f64(p + 4, r.q[2]);
    vst1q_f64(p + 6, r.q[3]);
  }
  [[nodiscard]] static Reg broadcast(double x) noexcept {
    const float64x2_t v = vdupq_n_f64(x);
    return {{v, v, v, v}};
  }
  [[nodiscard]] static Reg zero() noexcept { return broadcast(0.0); }

  [[nodiscard]] static Reg add(Reg a, Reg b) noexcept {
    return {{vaddq_f64(a.q[0], b.q[0]), vaddq_f64(a.q[1], b.q[1]), vaddq_f64(a.q[2], b.q[2]),
             vaddq_f64(a.q[3], b.q[3])}};
  }
  [[nodiscard]] static Reg sub(Reg a, Reg b) noexcept {
    return {{vsubq_f64(a.q[0], b.q[0]), vsubq_f64(a.q[1], b.q[1]), vsubq_f64(a.q[2], b.q[2]),
             vsubq_f64(a.q[3], b.q[3])}};
  }
  [[nodiscard]] static Reg min(Reg a, Reg b) noexcept {
    return {{vminq_f64(a.q[0], b.q[0]), vminq_f64(a.q[1], b.q[1]), vminq_f64(a.q[2], b.q[2]),
             vminq_f64(a.q[3], b.q[3])}};
  }
  [[nodiscard]] static Reg max(Reg a, Reg b) noexcept {
    return {{vmaxq_f64(a.q[0], b.q[0]), vmaxq_f64(a.q[1], b.q[1]), vmaxq_f64(a.q[2], b.q[2]),
             vmaxq_f64(a.q[3], b.q[3])}};
  }
  [[nodiscard]] static Reg abs(Reg a) noexcept {
    return {{vabsq_f64(a.q[0]), vabsq_f64(a.q[1]), vabsq_f64(a.q[2]), vabsq_f64(a.q[3])}};
  }

  [[nodiscard]] static Mask lt(Reg a, Reg b) noexcept {
    return {{vcltq_f64(a.q[0], b.q[0]), vcltq_f64(a.q[1], b.q[1]), vcltq_f64(a.q[2], b.q[2]),
             vcltq_f64(a.q[3], b.q[3])}};
  }
  [[nodiscard]] static Mask ge(Reg a, Reg b) noexcept {
    return {{vcgeq_f64(a.q[0], b.q[0]), vcgeq_f64(a.q[1], b.q[1]), vcgeq_f64(a.q[2], b.q[2]),
             vcgeq_f64(a.q[3], b.q[3])}};
  }
  [[nodiscard]] static Mask andnot(Mask a, Mask b) noexcept {
    return {{vbicq_u64(b.q[0], a.q[0]), vbicq_u64(b.q[1], a.q[1]), vbicq_u64(b.q[2], a.q[2]),
             vbicq_u64(b.q[3], a.q[3])}};
  }
  [[nodiscard]] static Reg blend(Reg a, Reg b, Mask m) noexcept {
    return {{vbslq_f64(m.q[0], b.q[0], a.q[0]), vbslq_f64(m.q[1], b.q[1], a.q[1]),
             vbslq_f64(m.q[2], b.q[2], a.q[2]), vbslq_f64(m.q[3], b.q[3], a.q[3])}};
  }
  [[nodiscard]] static bool all_true(Mask m) noexcept {
    const uint64x2_t and01 = vandq_u64(m.q[0], m.q[1]);
    const uint64x2_t and23 = vandq_u64(m.q[2], m.q[3]);
    const uint64x2_t all = vandq_u64(and01, and23);
    return vminvq_u32(vreinterpretq_u32_u64(all)) == 0xFFFFFFFFu;
  }
  /// Smallest lane value (steers evaluation order only; see VecScalar).
  [[nodiscard]] static double reduce_min(Reg a) noexcept {
    const float64x2_t m01 = vminq_f64(a.q[0], a.q[1]);
    const float64x2_t m23 = vminq_f64(a.q[2], a.q[3]);
    const float64x2_t m = vminq_f64(m01, m23);
    const double x = vgetq_lane_f64(m, 0);
    const double y = vgetq_lane_f64(m, 1);
    return x < y ? x : y;
  }
};

}  // namespace tzgeo::core::simd
