// Structure-of-arrays crowd storage for the vectorized placement kernels.
//
// A crowd arrives as one HourlyProfile per user — an array-of-structures
// layout where the 24 bins of one user are contiguous — but lane-parallel
// kernels want the OPPOSITE: bin b of 8 consecutive users in one aligned
// load.  SoaCrowd is that transpose: 24 contiguous planes (one per bin
// index) of `stride` doubles each, where column s holds user slot s.  The
// planes hold each user's prefix sums (CDF), the input of the circular-EMD
// kernels, computed once here and reused across all 24 zone comparisons
// AND across calls (see SoaCrowdCache).
//
//     plane 0   [ u0 u1 u2 u3 u4 u5 u6 u7 | u8 ... pad ]   <- cdf bin 0
//     plane 1   [ u0 u1 u2 u3 u4 u5 u6 u7 | u8 ... pad ]   <- cdf bin 1
//       ...                 one group = kLanes columns
//     plane 23  [ ...                                  ]
//
// Slots are NOT input order: the transpose stable-sorts users by their
// profile's argmax bin first.  The group prune in the circular kernel
// only skips a zone when every lane agrees it is hopeless, so groups of
// like-zoned users prune ~24x better than interleaved ones; the argmax
// bin is a free single-pass proxy for the eventual zone.  Each slot
// remembers its original index, results are scattered back, and per-user
// outputs are pure functions of profile content — so the permutation is
// invisible in every result (bit-identical to input-order evaluation).
//
// Tail slots (stride is rounded up to a whole group) replicate the last
// real user's column: pad lanes then behave exactly like a duplicate of a
// real user, so they can never block the group-consensus prune or produce
// non-finite intermediates.  Their outputs are discarded by the scatter.
//
// A crowd can shrink in place: retain() compacts the surviving columns and
// keeps each slot's original index, so outputs still scatter to the input
// order of the crowd the planes were built from.  The Section IV-C polish
// builds one crowd per analysis and retains the survivors of each round
// instead of transposing them again; SoaCrowdCache serves only the
// one-shot place_crowd calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/profile_builder.hpp"
#include "core/simd/simd.hpp"

namespace tzgeo::core {

class SoaCrowd {
 public:
  SoaCrowd() = default;

  /// Transposes the CDFs of `users` into planes (clearing any previous
  /// content).
  void build(const std::vector<UserProfileEntry>& users);

  /// Drops every slot s with keep[index_of_slot(s)] == 0, in place: the
  /// live columns move down in slot order, stride() shrinks to the live
  /// count rounded up to a whole group, and the tail is re-padded with
  /// the last live column.  `keep` is indexed like the outputs of
  /// PlacementEngine::place_soa (by original input index).  Allocates
  /// nothing.
  void retain(std::span<const std::uint8_t> keep) noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Columns per plane: size() rounded up to a whole group.
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  /// Whole kLanes-wide groups covering every slot.
  [[nodiscard]] std::size_t groups() const noexcept { return stride_ / simd::kLanes; }

  /// Plane base pointer (plane b starts at planes() + b * stride()).
  [[nodiscard]] const double* planes() const noexcept { return planes_.get(); }

  /// Original input index of slot `s` (s < size()).
  [[nodiscard]] std::size_t index_of_slot(std::size_t s) const noexcept { return slot_index_[s]; }
  /// User id of slot `s` (s < size()).
  [[nodiscard]] std::uint64_t user_of_slot(std::size_t s) const noexcept { return slot_user_[s]; }

 private:
  struct Free {
    void operator()(double* p) const noexcept;
  };

  /// Clones the last live column into the tail slots [size(), stride()).
  void pad_tail() noexcept;

  std::unique_ptr<double[], Free> planes_;
  std::size_t capacity_ = 0;  ///< allocated doubles in planes_
  std::size_t size_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::uint32_t> slot_index_;  ///< slot -> original index
  std::vector<std::uint64_t> slot_user_;   ///< slot -> user id
};

/// Process-wide cache of prepared SoA crowds.
///
/// Callers of place_crowd may place the SAME crowd
/// several times in a row; without a cache each call pays the full
/// transpose (and CDF recomputation) again.  The polish and the dossier
/// batch own their crowds and do not go through the cache.  Lookup is by
/// the crowd vector's identity (data pointer and size) and a build
/// generation; a hit is verified user-by-user against the stored
/// (id, posts, profile-storage pointer) triples, which is O(n) pointer
/// compares instead of O(24 n) doubles.  HourlyProfile is immutable after
/// construction, so matching storage pointers imply matching contents;
/// any rebuilt crowd reallocates its profile vectors and misses.
///
/// invalidate_all() bumps the generation, orphaning every entry (tests and
/// the chaos harness use it; callers holding a shared_ptr keep their
/// snapshot alive).
class SoaCrowdCache {
 public:
  [[nodiscard]] static SoaCrowdCache& global();

  /// Outcome of one get(): whether the crowd was reused and, on a miss,
  /// how long the transpose took.
  struct Prepare {
    bool hit = false;
    std::uint64_t transpose_us = 0;
  };

  /// The prepared crowd for `users`, built on miss.
  [[nodiscard]] std::shared_ptr<const SoaCrowd> get(const std::vector<UserProfileEntry>& users,
                                                    Prepare* prepare = nullptr);

  void invalidate_all() noexcept;

 private:
  struct Entry {
    const void* data = nullptr;  ///< users.data() at build time
    std::size_t size = 0;
    std::uint64_t generation = 0;
    std::uint64_t last_used = 0;  ///< LRU tick
    std::vector<std::uint64_t> user_ids;
    std::vector<std::size_t> user_posts;
    std::vector<const double*> profile_data;  ///< users[i].profile storage
    std::shared_ptr<const SoaCrowd> crowd;
  };

  [[nodiscard]] static bool matches(const Entry& entry,
                                    const std::vector<UserProfileEntry>& users,
                                    std::uint64_t generation) noexcept;

  static constexpr std::size_t kSlots = 4;

  mutable std::mutex mutex_;
  Entry entries_[kSlots];
  std::uint64_t generation_ = 0;
  std::uint64_t tick_ = 0;
};

}  // namespace tzgeo::core
