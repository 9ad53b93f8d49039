#include "util/handle_table.hpp"

namespace tzgeo::util {

namespace {

constexpr std::size_t kInitialBuckets = 16;

}  // namespace

std::uint32_t HandleTable::insert(std::uint64_t key) {
  if (buckets_.empty()) grow(kInitialBuckets);
  // Keep the load factor at or under 1/2: linear-probing chains stay one
  // or two buckets long, which is most of a lookup's cost on the ingest
  // grouping pass.
  if ((keys_.size() + 1) * 2 > buckets_.size()) grow(buckets_.size() * 2);
  std::size_t slot = mix(key) & mask_;
  while (buckets_[slot] != npos) slot = (slot + 1) & mask_;
  const auto handle = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back(key);
  buckets_[slot] = handle;
  return handle;
}

void HandleTable::reserve(std::size_t n) {
  keys_.reserve(n);
  std::size_t buckets = kInitialBuckets;
  while (buckets < n * 2) buckets *= 2;
  if (buckets > buckets_.size()) grow(buckets);
}

void HandleTable::grow(std::size_t min_buckets) {
  std::size_t buckets = kInitialBuckets;
  while (buckets < min_buckets) buckets *= 2;
  buckets_.assign(buckets, npos);
  mask_ = buckets - 1;
  for (std::uint32_t handle = 0; handle < keys_.size(); ++handle) {
    std::size_t slot = mix(keys_[handle]) & mask_;
    while (buckets_[slot] != npos) slot = (slot + 1) & mask_;
    buckets_[slot] = handle;
  }
}

}  // namespace tzgeo::util
