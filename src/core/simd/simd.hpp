// Portable-SIMD dispatch shim for the fixed-24-bin placement kernels.
//
// The placement hot path evaluates the same 24-bin EMD arithmetic for
// millions of users; the 24-wide fixed shape makes it a natural fit for
// data parallelism, but raw intrinsics scattered through the engine would
// tie the codebase to one ISA and make the scalar reference path rot.
// This shim is the single seam:
//
//   * every vector kernel exists in four builds — always-available
//     scalar, AVX2 and AVX-512 (x86-64), NEON (AArch64) — instantiated
//     from ONE generic template (kernels_impl.hpp) over a
//     lane-abstraction type, so all paths execute the identical operation
//     sequence and are bit-identical by construction (see DESIGN.md §12);
//   * the active path is chosen once at startup by runtime CPU detection
//     (`__builtin_cpu_supports` on x86-64), overridable with the
//     TZGEO_SIMD environment variable (`scalar`, `avx2`, `avx512`,
//     `neon`, `auto`) and at runtime with set_path() (tests sweep every
//     available path);
//   * kernels work on groups of kLanes users laid out structure-of-arrays
//     (one contiguous plane per bin; see core/soa_crowd.hpp), so one
//     aligned load feeds all lanes.
//
// tzgeo-lint enforces the seam mechanically: the `simd-shim` rule forbids
// <immintrin.h>/<arm_neon.h> includes and vector-register tokens outside
// src/core/simd/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/constants.hpp"

namespace tzgeo::core::simd {

/// One vectorized dispatch target.
enum class Path : std::uint8_t {
  kScalar,  ///< plain double loops — always available, the reference
  kAvx2,    ///< x86-64 AVX2, 4 doubles per register, two registers per group
  kNeon,    ///< AArch64 NEON, 2 doubles per register, four registers per group
  kAvx512,  ///< x86-64 AVX-512F+DQ, one 8-double register per group
};

/// Number of Path enumerators (sizes per-path metric arrays).
inline constexpr std::size_t kPathCount = 4;

/// Users processed per kernel call: one SoA group.
inline constexpr std::size_t kLanes = 8;

/// Row pitch of the circular-EMD zone matrix: 24 CDF values followed by
/// the 12 half-offset CDF differences Q_i - Q_{i+12} that feed the
/// prune's pair lower bound (precomputed once per engine, so the bound
/// loop does one broadcast per term instead of two).
inline constexpr std::size_t kCircularZoneRowPitch = kProfileBins + kProfileBins / 2;

/// Offset (in doubles) of the zone-pair distance block appended to the
/// circular zone matrix: a kZoneCount x kZoneCount row-major matrix D with
/// D[a][b] = exact circular EMD between zone profiles a and b.  Circular
/// EMD is a metric, so once a lane's distance to its seed zone is known,
/// D[seed][z] - dist(user, seed) lower-bounds dist(user, z) — the second,
/// usually much tighter, leg of the margin prune (see place_circular).
inline constexpr std::size_t kCircularZonePairOffset = kZoneCount * kCircularZoneRowPitch;

/// Nearest/runner-up results for one group of kLanes users.  Zone bins are
/// carried as doubles so every backend updates them with the same blend
/// arithmetic as the distances (a bin index is exact in a double).
struct alignas(64) GroupPlacement {
  double distance[kLanes];
  double runner_up[kLanes];
  double zone_bin[kLanes];
};

/// Pruning counters for the circular-EMD group kernel.  A "zone group" is
/// one zone evaluated (or skipped) for a whole group of kLanes users.
struct GroupStats {
  std::uint64_t zone_groups_pruned = 0;     ///< whole-group lower-bound skips
  std::uint64_t zone_groups_evaluated = 0;  ///< exact sorting-network runs
};

/// The circular-EMD kernels of one dispatch path.  `planes` is the SoA
/// store of user CDFs: plane b starts at planes + b * stride, and a
/// group's lane 0 sits at offset `base` (a multiple of kLanes, so loads
/// are aligned).
struct KernelTable {
  /// Nearest and runner-up zone of each lane, with best-bound-first
  /// evaluation and the whole-group margin prune.  `zone_rows` uses
  /// kCircularZoneRowPitch (CDF row plus precomputed pair differences) and
  /// carries the zone-pair distance matrix at kCircularZonePairOffset.
  void (*place_circular)(const double* planes, std::size_t stride, std::size_t base,
                         const double* zone_rows, GroupPlacement& out, GroupStats& stats);
  /// Distance of each lane to one CDF row (the Section IV-C uniform test).
  void (*row_circular)(const double* planes, std::size_t stride, std::size_t base,
                       const double* row_cdf, double* out);
};

/// The active path's kernel table (one relaxed atomic load; fetch once per
/// batch, not per group).
[[nodiscard]] const KernelTable& kernels() noexcept;

/// The path currently serving kernels().
[[nodiscard]] Path active_path() noexcept;

/// Whether `path` was compiled in AND is supported by this CPU.
[[nodiscard]] bool path_available(Path path) noexcept;

/// Forces a path (tests sweep every compiled-in path in one process).
/// Returns false — and changes nothing — if the path is unavailable.
bool set_path(Path path) noexcept;

/// A parsed TZGEO_SIMD request.
enum class PathChoice : std::uint8_t {
  kAuto,          ///< "auto", empty, or unset: best available path
  kForceScalar,   ///< "scalar"
  kForceAvx2,     ///< "avx2"
  kForceNeon,     ///< "neon"
  kForceAvx512,   ///< "avx512"
  kInvalid,       ///< anything else (treated as kAuto at resolution)
};

[[nodiscard]] PathChoice parse_choice(std::string_view name) noexcept;

/// Maps a choice onto an available path: a forced choice that was not
/// compiled in (or that the CPU lacks) falls back to the best available
/// path, as does kAuto/kInvalid — the library must keep working when a
/// build is moved to an older machine.
[[nodiscard]] Path resolve_choice(PathChoice choice) noexcept;

[[nodiscard]] const char* to_string(Path path) noexcept;

}  // namespace tzgeo::core::simd
