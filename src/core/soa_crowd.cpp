#include "core/soa_crowd.hpp"

#include <algorithm>
#include <new>

#include "obs/stopwatch.hpp"
#include "stats/emd.hpp"

namespace tzgeo::core {

namespace {

constexpr std::size_t kPlaneAlign = 64;  ///< cache line; covers 32B AVX loads

/// Argmax bin of a profile (ties -> lowest index): a one-pass proxy for
/// the user's eventual zone, used only to group like-zoned users.
[[nodiscard]] std::size_t argmax_bin(const HourlyProfile& profile) noexcept {
  const double* v = profile.values().data();
  std::size_t best = 0;
  for (std::size_t i = 1; i < kProfileBins; ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

}  // namespace

void SoaCrowd::Free::operator()(double* p) const noexcept {
  ::operator delete[](p, std::align_val_t{kPlaneAlign});
}

void SoaCrowd::build(const std::vector<UserProfileEntry>& users, Planes kind) {
  const std::size_t n = users.size();
  size_ = n;
  kind_ = kind;
  stride_ = (n + simd::kLanes - 1) / simd::kLanes * simd::kLanes;
  slot_index_.resize(n);
  slot_user_.resize(n);
  if (n == 0) return;

  const std::size_t needed = kProfileBins * stride_;
  if (needed > capacity_) {
    planes_.reset(static_cast<double*>(
        ::operator new[](needed * sizeof(double), std::align_val_t{kPlaneAlign})));
    capacity_ = needed;
  }

  // Stable counting sort by argmax bin: slot order groups users whose
  // activity peaks in the same hour, which the group prune rewards.
  std::size_t offsets[kProfileBins + 1] = {};
  std::vector<std::uint8_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<std::uint8_t>(argmax_bin(users[i].profile));
    ++offsets[keys[i] + 1];
  }
  for (std::size_t b = 1; b <= kProfileBins; ++b) offsets[b] += offsets[b - 1];

  // Column transpose, in input order: the profiles are read front to
  // back, and each argmax bucket fills its slots consecutively, so the
  // writes stay within 24 buckets x 24 planes of resident lines instead
  // of gathering the profiles in slot order.
  double column[kProfileBins];
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = offsets[keys[i]]++;
    slot_index_[s] = static_cast<std::uint32_t>(i);
    slot_user_[s] = users[i].user;
    const double* bins = users[i].profile.values().data();
    const double* src = bins;
    if (kind == Planes::kCdf) {
      stats::prefix_sums_24(bins, column);
      src = column;
    }
    for (std::size_t b = 0; b < kProfileBins; ++b) {
      planes_[b * stride_ + s] = src[b];
    }
  }
  pad_tail();
}

void SoaCrowd::pad_tail() noexcept {
  // Tail pad: clone the last real column so pad lanes act as a duplicate
  // user (prune-neutral, finite, discarded by the scatter).
  if (size_ == 0) return;
  for (std::size_t b = 0; b < kProfileBins; ++b) {
    double* plane = planes_.get() + b * stride_;
    std::fill(plane + size_, plane + stride_, plane[size_ - 1]);
  }
}

// tzgeo: hot — runs once per polish round; compacts in place.
void SoaCrowd::retain(std::span<const std::uint8_t> keep) noexcept {
  std::size_t live = 0;
  for (std::size_t s = 0; s < size_; ++s) live += keep[slot_index_[s]] != 0 ? 1 : 0;
  const std::size_t old_stride = stride_;
  const std::size_t new_stride = (live + simd::kLanes - 1) / simd::kLanes * simd::kLanes;

  // Plane b moves from b * old_stride to b * new_stride.  Every write lands
  // at or below the position being read (new_stride <= old_stride and the
  // write slot never passes the read slot), so one forward sweep compacts
  // the planes without clobbering a column it has yet to read.  That holds
  // for the unconditional store too: a dropped slot's value lands at the
  // write cursor, which the next kept slot (or the tail pad, or the next
  // plane's sweep) overwrites.
  double* planes = planes_.get();
  for (std::size_t b = 0; b < kProfileBins; ++b) {
    const double* src = planes + b * old_stride;
    double* dst = planes + b * new_stride;
    std::size_t w = 0;
    for (std::size_t s = 0; s < size_; ++s) {
      dst[w] = src[s];
      w += keep[slot_index_[s]] != 0 ? 1 : 0;
    }
  }
  // The slot maps go last: the plane sweep above reads the old mapping.
  std::size_t w = 0;
  for (std::size_t s = 0; s < size_; ++s) {
    if (keep[slot_index_[s]] == 0) continue;
    slot_index_[w] = slot_index_[s];
    slot_user_[w] = slot_user_[s];
    ++w;
  }
  slot_index_.resize(live);
  slot_user_.resize(live);
  size_ = live;
  stride_ = new_stride;
  pad_tail();
}

SoaCrowdCache& SoaCrowdCache::global() {
  static SoaCrowdCache cache;
  return cache;
}

bool SoaCrowdCache::matches(const Entry& entry, const std::vector<UserProfileEntry>& users,
                            SoaCrowd::Planes kind, std::uint64_t generation) noexcept {
  if (entry.crowd == nullptr || entry.generation != generation) return false;
  if (entry.data != static_cast<const void*>(users.data()) || entry.size != users.size() ||
      entry.kind != kind) {
    return false;
  }
  for (std::size_t i = 0; i < users.size(); ++i) {
    if (entry.user_ids[i] != users[i].user || entry.user_posts[i] != users[i].posts ||
        entry.profile_data[i] != users[i].profile.values().data()) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<const SoaCrowd> SoaCrowdCache::get(const std::vector<UserProfileEntry>& users,
                                                   SoaCrowd::Planes kind, Prepare* prepare) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (Entry& entry : entries_) {
      if (matches(entry, users, kind, generation_)) {
        entry.last_used = ++tick_;
        ++hits_;
        if (prepare != nullptr) *prepare = Prepare{true, 0};
        return entry.crowd;
      }
    }
    ++misses_;
  }

  // Build outside the lock: transposes are the expensive part and two
  // threads preparing different crowds must not serialize each other.
  const obs::Stopwatch watch;
  auto crowd = std::make_shared<SoaCrowd>();
  crowd->build(users, kind);
  if (prepare != nullptr) *prepare = Prepare{false, watch.elapsed_us()};

  Entry fresh;
  fresh.data = users.data();
  fresh.size = users.size();
  fresh.kind = kind;
  fresh.user_ids.reserve(users.size());
  fresh.user_posts.reserve(users.size());
  fresh.profile_data.reserve(users.size());
  for (const UserProfileEntry& user : users) {
    fresh.user_ids.push_back(user.user);
    fresh.user_posts.push_back(user.posts);
    fresh.profile_data.push_back(user.profile.values().data());
  }
  fresh.crowd = crowd;

  const std::lock_guard<std::mutex> lock(mutex_);
  fresh.generation = generation_;
  fresh.last_used = ++tick_;
  Entry* victim = &entries_[0];
  for (Entry& entry : entries_) {
    if (entry.crowd == nullptr) {
      victim = &entry;
      break;
    }
    if (entry.last_used < victim->last_used) victim = &entry;
  }
  *victim = std::move(fresh);
  return crowd;
}

void SoaCrowdCache::invalidate_all() noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++generation_;
}

std::uint64_t SoaCrowdCache::hits() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t SoaCrowdCache::misses() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace tzgeo::core
