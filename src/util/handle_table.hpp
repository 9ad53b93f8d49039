// Append-only interning handle table: dense handles for 64-bit keys.
//
// The ingest path resolves an author on every row; a std::map pays one
// O(log n) pointer chase per event plus one node allocation per distinct
// user.  This table interns keys instead: an append-only arena of keys
// (handle -> key, never reordered, never freed) indexed by an
// open-addressing hash (key -> handle), so a lookup is O(1) with linear
// probing and the only steady-state allocation is the amortized growth of
// two flat vectors.  Handles are dense 0..size()-1 in first-insertion
// order, which makes them directly usable as indices into parallel
// per-user state arrays (ActivityTrace events, IncrementalGeolocator
// state).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tzgeo::util {

class HandleTable {
 public:
  /// Sentinel returned by find() for absent keys.
  static constexpr std::uint32_t npos = 0xFFFFFFFFu;

  HandleTable() = default;

  /// Handle of `key`, interning it (next dense handle) when absent.  The
  /// found-it probe is inline (one lookup per ingested row); only the
  /// first sighting of a key takes the out-of-line insert path.
  std::uint32_t intern(std::uint64_t key) {
    if (!buckets_.empty()) {
      std::size_t slot = mix(key) & mask_;
      for (;;) {
        const std::uint32_t handle = buckets_[slot];
        if (handle == npos) break;
        if (keys_[handle] == key) return handle;
        slot = (slot + 1) & mask_;
      }
    }
    return insert(key);
  }

  /// Handle of `key`, or npos when absent.  Never allocates.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const noexcept {
    if (buckets_.empty()) return npos;
    std::size_t slot = mix(key) & mask_;
    for (;;) {
      const std::uint32_t handle = buckets_[slot];
      if (handle == npos) return npos;
      if (keys_[handle] == key) return handle;
      slot = (slot + 1) & mask_;
    }
  }

  /// Number of distinct interned keys.
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }

  /// The key arena: keys()[handle] is the interned key, in insertion order.
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const noexcept { return keys_; }

  /// Open-addressing bucket count (power of two; 0 before first insert).
  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }

  /// Occupied fraction of the bucket array, at most 1/2.  0 when empty.
  [[nodiscard]] double load_factor() const noexcept {
    return buckets_.empty()
               ? 0.0
               : static_cast<double>(keys_.size()) / static_cast<double>(buckets_.size());
  }

  /// Pre-sizes the arena and bucket array for `n` distinct keys.
  void reserve(std::size_t n);

 private:
  /// SplitMix64 finalizer: spreads low-entropy keys (small sequential ids
  /// in tests) across the bucket space; full-entropy hash64 ids pass
  /// through without clustering.
  [[nodiscard]] static constexpr std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Appends `key` as a new handle, growing the bucket array as needed.
  std::uint32_t insert(std::uint64_t key);

  void grow(std::size_t min_buckets);

  std::vector<std::uint64_t> keys_;     ///< handle -> key (append-only arena)
  std::vector<std::uint32_t> buckets_;  ///< open addressing; npos marks empty
  std::uint64_t mask_ = 0;              ///< buckets_.size() - 1 (power of two)
};

}  // namespace tzgeo::util
