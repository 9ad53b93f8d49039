#include "core/profile_builder.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>

#include "core/thread_pool.hpp"
#include "obs/trace.hpp"

namespace tzgeo::core {

namespace {

/// Below this many events the builder stays on the calling thread: waking
/// the pool would cost more than the work.
constexpr std::size_t kParallelEvents = std::size_t{1} << 15;
/// User chunks per pool thread, so a chunk heavy with active users does
/// not set the pace while other threads idle.
constexpr std::size_t kChunksPerThread = 4;

/// Encoded (day, hour) cell of an event under the chosen binning.
[[nodiscard]] std::int64_t cell_of(tz::UtcSeconds t, const ProfileBuildOptions& options) {
  std::int64_t shifted = t;
  if (options.binning == HourBinning::kLocal) {
    shifted += options.zone->offset_at(t);
  } else if (options.binning == HourBinning::kUtcDstNormalized) {
    // Add the DST saving only, so a summer event lands on the UTC hour its
    // local wall-clock time would map to in winter.
    shifted += options.zone->offset_at(t) - options.zone->standard_offset_seconds();
  }
  return tz::hour_cell_of(shifted);
}

/// Median of a non-empty vector of per-day counts (sorted in place).
[[nodiscard]] double median_count(std::vector<std::size_t>& values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return static_cast<double>(values[n / 2]);
  return 0.5 * static_cast<double>(values[n / 2 - 1] + values[n / 2]);
}

/// Runs `fn(i)` for every i in [0, n) on the global pool, or inline when
/// n is 1 (small inputs never start the pool).
template <typename Fn>
void for_each_chunk(std::size_t n, const Fn& fn) {
  if (n == 1) {
    fn(std::size_t{0});
    return;
  }
  ThreadPool::global().for_chunks(n, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

/// The calendar days dropped as low-activity, ascending.  A dense day range
/// also keeps them as a bitmap over [first_day, first_day + span), so a
/// lookup is one bit test; a range wider than the event count (a hostile
/// timestamp can stretch it to 10^15 days) falls back to binary search.
struct DroppedDays {
  std::vector<std::int64_t> days;
  std::int64_t first_day = 0;
  std::vector<std::uint64_t> bitmap;

  [[nodiscard]] bool contains(std::int64_t day) const noexcept {
    if (bitmap.empty()) return std::binary_search(days.begin(), days.end(), day);
    const auto bit = static_cast<std::uint64_t>(day - first_day);
    return ((bitmap[bit / 64] >> (bit % 64)) & 1U) != 0;
  }
};

/// The site-wide low-activity filter: posts per calendar day over every
/// event's cell, then the days below `low_activity_fraction` x the median
/// over the days that have posts (when there are at least 7 such days).
/// `partials` bounds how many per-thread count arrays a dense range uses.
[[nodiscard]] DroppedDays low_activity_days(std::span<const std::int64_t> cells,
                                            std::int64_t min_cell, std::int64_t max_cell,
                                            std::size_t partials,
                                            const ProfileBuildOptions& options) {
  const std::int64_t first_day = day_of_cell(min_cell);
  const auto span = static_cast<std::uint64_t>(day_of_cell(max_cell) - first_day) + 1;
  const std::size_t total = cells.size();
  const bool dense = span <= total;

  // The days that have posts, ascending, and their post counts.
  std::vector<std::int64_t> days;
  std::vector<std::size_t> posts;
  if (dense) {
    // One count array per contiguous slice of the arena, summed at the
    // end.  partials x span <= total, so the arrays never outgrow the arena.
    partials = std::clamp<std::size_t>(total / span, 1, partials);
    std::vector<std::vector<std::size_t>> counts(partials);
    for_each_chunk(partials, [&, first_day](std::size_t p) {
      std::vector<std::size_t>& local = counts[p];
      local.assign(span, 0);
      const std::size_t end = (p + 1) * total / partials;
      for (std::size_t i = p * total / partials; i < end; ++i) {
        ++local[static_cast<std::size_t>(day_of_cell(cells[i]) - first_day)];
      }
    });
    for (std::size_t d = 0; d < span; ++d) {
      std::size_t day_posts = 0;
      for (const std::vector<std::size_t>& local : counts) day_posts += local[d];
      if (day_posts == 0) continue;
      days.push_back(first_day + static_cast<std::int64_t>(d));
      posts.push_back(day_posts);
    }
  } else {
    std::vector<std::int64_t> all_days;
    all_days.reserve(total);
    for (const std::int64_t cell : cells) all_days.push_back(day_of_cell(cell));
    std::sort(all_days.begin(), all_days.end());
    for (std::size_t i = 0; i < all_days.size();) {
      std::size_t j = i + 1;
      while (j < all_days.size() && all_days[j] == all_days[i]) ++j;
      days.push_back(all_days[i]);
      posts.push_back(j - i);
      i = j;
    }
  }

  DroppedDays dropped;
  if (days.size() < 7) return dropped;
  std::vector<std::size_t> sorted_posts = posts;
  const double threshold = options.low_activity_fraction * median_count(sorted_posts);
  for (std::size_t i = 0; i < days.size(); ++i) {
    if (static_cast<double>(posts[i]) < threshold) dropped.days.push_back(days[i]);
  }
  if (dense && !dropped.days.empty()) {
    dropped.first_day = first_day;
    dropped.bitmap.assign(static_cast<std::size_t>((span + 63) / 64), 0);
    for (const std::int64_t day : dropped.days) {
      const auto bit = static_cast<std::uint64_t>(day - first_day);
      dropped.bitmap[bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
  }
  return dropped;
}

}  // namespace

HourlyProfile ProfileSet::population_profile() const {
  std::vector<HourlyProfile> profiles;
  profiles.reserve(users.size());
  for (const auto& entry : users) profiles.push_back(entry.profile);
  return aggregate_profiles(profiles);
}

ProfileSet build_profiles(const ActivityTrace& trace, const ProfileBuildOptions& options) {
  const obs::ScopedSpan profiles_span("profiles");
  if (options.binning != HourBinning::kUtc && options.zone == nullptr) {
    throw std::invalid_argument("build_profiles: zone-aware binning requires a zone");
  }
  if (options.min_posts == 0) {
    throw std::invalid_argument("build_profiles: min_posts must be >= 1");
  }

  ProfileSet result;
  const std::size_t total = trace.event_count();
  if (total == 0) return result;

  // Every event becomes an encoded (day, hour) cell in one arena, users
  // laid out back to back in id order: user u owns [offsets[u], offsets[u+1]).
  struct User {
    std::uint64_t id = 0;
    const std::vector<tz::UtcSeconds>* events = nullptr;
  };
  const auto view = trace.users();
  std::vector<User> users;
  users.reserve(view.size());
  std::vector<std::size_t> offsets{0};
  offsets.reserve(view.size() + 1);
  for (const auto& [user, events] : view) {
    users.push_back(User{user, &events});
    offsets.push_back(offsets.back() + events.size());
  }
  const auto arena = std::make_unique_for_overwrite<std::int64_t[]>(total);
  const std::span<std::int64_t> cells{arena.get(), total};

  // Contiguous user chunks holding about equal numbers of events.  Every
  // user's arithmetic is independent of the chunking, and the chunks'
  // results are concatenated in id order, so the output is the serial one.
  const std::size_t threads = total < kParallelEvents ? 1 : ThreadPool::global().size() + 1;
  const std::size_t chunk_count = threads == 1 ? 1 : threads * kChunksPerThread;
  std::vector<std::size_t> chunk_begin(chunk_count + 1, users.size());
  for (std::size_t c = 0; c < chunk_count; ++c) {
    chunk_begin[c] = static_cast<std::size_t>(
        std::lower_bound(offsets.begin(), offsets.end() - 1, c * total / chunk_count) -
        offsets.begin());
  }
  struct ChunkResult {
    std::int64_t min_cell = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_cell = std::numeric_limits<std::int64_t>::min();
    std::vector<UserProfileEntry> users;
    std::size_t inactive = 0;
  };
  std::vector<ChunkResult> chunks(chunk_count);

  // Pass 1: bin every event, noting the cell range for the day filter.
  for_each_chunk(chunk_count, [&](std::size_t c) {
    std::int64_t min_cell = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_cell = std::numeric_limits<std::int64_t>::min();
    for (std::size_t u = chunk_begin[c]; u < chunk_begin[c + 1]; ++u) {
      std::int64_t* out = arena.get() + offsets[u];
      for (const tz::UtcSeconds t : *users[u].events) {
        const std::int64_t cell = cell_of(t, options);
        min_cell = std::min(min_cell, cell);
        max_cell = std::max(max_cell, cell);
        *out++ = cell;
      }
    }
    chunks[c].min_cell = min_cell;
    chunks[c].max_cell = max_cell;
  });

  DroppedDays dropped;
  if (options.filter_low_activity_days) {
    std::int64_t min_cell = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_cell = std::numeric_limits<std::int64_t>::min();
    for (const ChunkResult& chunk : chunks) {
      min_cell = std::min(min_cell, chunk.min_cell);
      max_cell = std::max(max_cell, chunk.max_cell);
    }
    dropped = low_activity_days(cells, min_cell, max_cell, threads, options);
  }
  result.filtered_days = dropped.days.size();

  // Pass 2: Equation 1 per user over the cells of surviving days.  A user
  // with fewer events than the threshold cannot pass it, whatever the
  // filter keeps.
  for_each_chunk(chunk_count, [&](std::size_t c) {
    ChunkResult& chunk = chunks[c];
    for (std::size_t u = chunk_begin[c]; u < chunk_begin[c + 1]; ++u) {
      const std::span<std::int64_t> user_cells =
          cells.subspan(offsets[u], offsets[u + 1] - offsets[u]);
      std::size_t posts = user_cells.size();
      if (posts >= options.min_posts && !dropped.days.empty()) {
        posts = static_cast<std::size_t>(
            std::remove_if(user_cells.begin(), user_cells.end(),
                           [&](std::int64_t cell) { return dropped.contains(day_of_cell(cell)); }) -
            user_cells.begin());
      }
      if (posts < options.min_posts) {
        ++chunk.inactive;
        continue;
      }
      chunk.users.push_back(
          UserProfileEntry{users[u].id, posts, profile_of_cells(user_cells.first(posts))});
    }
  });

  std::size_t active = 0;
  for (const ChunkResult& chunk : chunks) active += chunk.users.size();
  result.users.reserve(active);
  for (ChunkResult& chunk : chunks) {
    result.filtered_inactive += chunk.inactive;
    std::move(chunk.users.begin(), chunk.users.end(), std::back_inserter(result.users));
  }
  return result;
}

}  // namespace tzgeo::core
