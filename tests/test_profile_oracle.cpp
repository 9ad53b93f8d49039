// build_profiles against an independent reference: the straightforward
// Equation 1 builder (a global sort of every event's day to count posts
// per day, one binary search per event against the dropped days, a sort of
// every user's cells) that the production builder replaced with dense day
// counts, a linear dedup and parallel user chunks.  The two must agree
// field for field — the 24 profile doubles bit for bit, plus posts,
// filtered_inactive and filtered_days — on randomized crowds covering every
// binning, shuffled and pre-epoch input, every day-filter regime and crowds
// large enough to split across the thread pool.
//
// The binary links allocation_budget.hpp's counting operator new, so a
// test can bound what a call allocates: a hostile timestamp must not make
// the builder size anything by the day span.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <vector>

#include "allocation_budget.hpp"
#include "core/profile_builder.hpp"
#include "timezone/zone_db.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

// ---------------------------------------------------------------------------
// The reference builder.

struct DayHour {
  std::int64_t day = 0;
  std::int32_t hour = 0;
};

[[nodiscard]] DayHour reference_bin(tz::UtcSeconds t, const ProfileBuildOptions& options) {
  std::int64_t shifted = t;
  if (options.binning == HourBinning::kLocal) {
    shifted += options.zone->offset_at(t);
  } else if (options.binning == HourBinning::kUtcDstNormalized) {
    shifted += options.zone->offset_at(t) - options.zone->standard_offset_seconds();
  }
  std::int64_t day = shifted / tz::kSecondsPerDay;
  std::int64_t rem = shifted % tz::kSecondsPerDay;
  if (rem < 0) {
    rem += tz::kSecondsPerDay;
    --day;
  }
  return DayHour{day, static_cast<std::int32_t>(rem / tz::kSecondsPerHour)};
}

[[nodiscard]] double reference_median(std::vector<std::size_t> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return static_cast<double>(values[n / 2]);
  return 0.5 * static_cast<double>(values[n / 2 - 1] + values[n / 2]);
}

[[nodiscard]] ProfileSet reference_build_profiles(const ActivityTrace& trace,
                                                  const ProfileBuildOptions& options) {
  struct UserSpan {
    std::uint64_t user = 0;
    std::size_t begin = 0;
    std::size_t size = 0;
  };
  std::vector<std::int64_t> cells;
  std::vector<UserSpan> spans;
  for (const auto& [user, events] : trace.users()) {
    const std::size_t begin = cells.size();
    for (const tz::UtcSeconds t : events) {
      const DayHour bin = reference_bin(t, options);
      cells.push_back(cell_of_day_hour(bin.day, bin.hour));
    }
    spans.push_back(UserSpan{user, begin, cells.size() - begin});
  }

  ProfileSet result;
  if (cells.empty()) return result;

  std::vector<std::int64_t> dropped_days;
  if (options.filter_low_activity_days) {
    std::vector<std::int64_t> days;
    for (const std::int64_t cell : cells) days.push_back(day_of_cell(cell));
    std::sort(days.begin(), days.end());
    std::vector<std::int64_t> unique_days;
    std::vector<std::size_t> day_counts;
    for (std::size_t i = 0; i < days.size();) {
      std::size_t j = i + 1;
      while (j < days.size() && days[j] == days[i]) ++j;
      unique_days.push_back(days[i]);
      day_counts.push_back(j - i);
      i = j;
    }
    if (unique_days.size() >= 7) {
      const double threshold = options.low_activity_fraction * reference_median(day_counts);
      for (std::size_t i = 0; i < unique_days.size(); ++i) {
        if (static_cast<double>(day_counts[i]) < threshold) dropped_days.push_back(unique_days[i]);
      }
    }
  }
  result.filtered_days = dropped_days.size();

  std::vector<std::int64_t> active_cells;
  for (const UserSpan& span : spans) {
    active_cells.clear();
    std::size_t posts = 0;
    for (std::size_t i = 0; i < span.size; ++i) {
      const std::int64_t cell = cells[span.begin + i];
      if (std::binary_search(dropped_days.begin(), dropped_days.end(), day_of_cell(cell))) {
        continue;
      }
      ++posts;
      active_cells.push_back(cell);
    }
    if (posts < options.min_posts) {
      ++result.filtered_inactive;
      continue;
    }
    std::sort(active_cells.begin(), active_cells.end());
    active_cells.erase(std::unique(active_cells.begin(), active_cells.end()), active_cells.end());
    std::vector<double> counts(kProfileBins, 0.0);
    for (const std::int64_t cell : active_cells) {
      counts[static_cast<std::size_t>(hour_of_cell(cell))] += 1.0;
    }
    result.users.push_back(UserProfileEntry{span.user, posts, HourlyProfile::from_counts(counts)});
  }
  return result;
}

// ---------------------------------------------------------------------------
// Randomized crowds.

struct CrowdSpec {
  std::size_t users = 1;
  tz::UtcSeconds first_day = 0;  ///< midnight UTC of the window's first day
  std::int64_t days = 60;        ///< window length
  bool shuffled = false;         ///< events in random rather than time order
  std::uint64_t seed = 1;
};

/// Users with a personal peak hour, repeated posts within an hour (so cells
/// repeat), post counts clustered around the 30-post threshold, and about
/// one day in eight a near-silent "holiday" for the day filter to drop.
[[nodiscard]] ActivityTrace make_crowd(const CrowdSpec& spec) {
  util::Rng rng{spec.seed};
  std::vector<double> day_weight(static_cast<std::size_t>(spec.days));
  for (double& weight : day_weight) weight = rng.bernoulli(0.125) ? 0.03 : rng.uniform(0.5, 1.5);
  constexpr std::int64_t kPostCounts[] = {1, 2, 29, 30, 31, 30, 45, 120};

  ActivityTrace trace;
  std::vector<tz::UtcSeconds> times;
  for (std::size_t u = 0; u < spec.users; ++u) {
    const auto id = static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000'000'000));
    const std::int64_t posts =
        rng.bernoulli(0.7) ? kPostCounts[rng.categorical(std::vector<double>(8, 1.0))]
                           : rng.uniform_int(1, 90);
    const double peak = rng.uniform(0.0, 24.0);
    times.clear();
    for (std::int64_t p = 0; p < posts; ++p) {
      if (!times.empty() && rng.bernoulli(0.3)) {
        times.push_back(times.back() + rng.uniform_int(0, 600));  // often the same cell
        continue;
      }
      const auto day = static_cast<std::int64_t>(rng.categorical(day_weight));
      const auto hour = static_cast<std::int64_t>(peak + rng.normal(0.0, 3.0) + 48.0) % 24;
      times.push_back(spec.first_day + day * tz::kSecondsPerDay + hour * tz::kSecondsPerHour +
                      rng.uniform_int(0, tz::kSecondsPerHour - 1));
    }
    if (spec.shuffled) {
      rng.shuffle(times);
    } else {
      std::sort(times.begin(), times.end());
    }
    for (const tz::UtcSeconds t : times) trace.add(id, t);
  }
  return trace;
}

[[nodiscard]] tz::UtcSeconds midnight(std::int32_t y, std::int32_t m, std::int32_t d) {
  return tz::to_utc_seconds(tz::CivilDateTime{tz::CivilDate{y, m, d}, 0, 0, 0});
}

void expect_identical(const ProfileSet& actual, const ProfileSet& expected,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(actual.users.size(), expected.users.size());
  EXPECT_EQ(actual.filtered_inactive, expected.filtered_inactive);
  EXPECT_EQ(actual.filtered_days, expected.filtered_days);
  for (std::size_t i = 0; i < actual.users.size(); ++i) {
    const UserProfileEntry& a = actual.users[i];
    const UserProfileEntry& e = expected.users[i];
    ASSERT_EQ(a.user, e.user) << "user " << i;
    EXPECT_EQ(a.posts, e.posts) << "user " << a.user;
    ASSERT_EQ(a.profile.values().size(), kProfileBins);
    ASSERT_EQ(e.profile.values().size(), kProfileBins);
    EXPECT_EQ(std::memcmp(a.profile.values().data(), e.profile.values().data(),
                          kProfileBins * sizeof(double)),
              0)
        << "profile of user " << a.user << " differs";
  }
}

struct Binning {
  const char* name;
  HourBinning binning;
  const char* zone;  ///< nullptr for kUtc
};

// Berlin falls back on the last Sunday of October, Sydney on the first
// Sunday of April: local cells of time-ordered events go backwards there.
constexpr Binning kBinnings[] = {
    {"utc", HourBinning::kUtc, nullptr},
    {"local-berlin", HourBinning::kLocal, "Europe/Berlin"},
    {"local-sydney", HourBinning::kLocal, "Australia/Sydney"},
    {"dst-normalized-berlin", HourBinning::kUtcDstNormalized, "Europe/Berlin"},
};

[[nodiscard]] ProfileBuildOptions options_for(const Binning& binning) {
  ProfileBuildOptions options;
  options.binning = binning.binning;
  options.zone = binning.zone == nullptr ? nullptr : &tz::zone(binning.zone);
  return options;
}

TEST(ProfileOracle, RandomizedCrowdsMatchFieldForField) {
  // Sizes from one user to thousands (~120 k events, many pool chunks).
  constexpr std::size_t kSizes[] = {1, 3, 17, 240, 3000};
  struct Window {
    const char* name;
    tz::UtcSeconds first_day;
    std::int64_t days;
  };
  // Windows straddle both DST fall-backs; one is entirely pre-epoch, one
  // straddles the epoch, and one has fewer than 7 days (no day filter).
  const Window windows[] = {
      {"autumn-2016", midnight(2016, 9, 20), 60},
      {"autumn-1965", midnight(1965, 9, 20), 60},
      {"across-epoch", midnight(1969, 12, 1), 90},
      {"sydney-april", midnight(2017, 3, 15), 45},
      {"five-days", midnight(2016, 10, 27), 5},
  };
  std::uint64_t seed = 0;
  for (const Window& window : windows) {
    for (const std::size_t users : kSizes) {
      for (const bool shuffled : {false, true}) {
        const ActivityTrace trace =
            make_crowd(CrowdSpec{users, window.first_day, window.days, shuffled, ++seed});
        for (const Binning& binning : kBinnings) {
          for (const bool filter : {false, true}) {
            ProfileBuildOptions options = options_for(binning);
            options.filter_low_activity_days = filter;
            options.min_posts = users < 20 ? 1 : 30;
            const std::string label = std::string(window.name) + " users=" +
                                      std::to_string(users) + (shuffled ? " shuffled " : " ") +
                                      binning.name + (filter ? " filter" : " no-filter");
            expect_identical(build_profiles(trace, options),
                             reference_build_profiles(trace, options), label);
          }
        }
      }
    }
  }
}

TEST(ProfileOracle, FilterDropsDaysInTheLargeCrowd) {
  // Guards the test above against a generator that never exercises the
  // filter: the big crowd's holidays must be dropped, and users must fall
  // on both sides of the threshold.
  const ActivityTrace trace = make_crowd(CrowdSpec{3000, midnight(2016, 9, 20), 60, false, 99});
  const ProfileSet set = build_profiles(trace, ProfileBuildOptions{});
  EXPECT_GT(set.filtered_days, 0u);
  EXPECT_GT(set.filtered_inactive, 0u);
  EXPECT_FALSE(set.users.empty());
  expect_identical(set, reference_build_profiles(trace, ProfileBuildOptions{}), "default options");
}

TEST(ProfileOracle, UsersExactlyAtThreshold) {
  // min_posts counts surviving posts: 30 pass, 29 do not, and posts the
  // day filter drops do not count.
  ActivityTrace trace;
  const tz::UtcSeconds start = midnight(2016, 3, 1);
  for (std::int64_t day = 0; day < 30; ++day) {
    for (std::uint64_t busy = 100; busy < 110; ++busy) {
      trace.add(busy, start + day * tz::kSecondsPerDay + 12 * tz::kSecondsPerHour);
    }
    trace.add(1, start + day * tz::kSecondsPerDay + 20 * tz::kSecondsPerHour);  // 30 posts
    if (day < 29) trace.add(2, start + day * tz::kSecondsPerDay + 8 * tz::kSecondsPerHour);
  }
  trace.add(3, start + 40 * tz::kSecondsPerDay);  // a lone post on a quiet day
  for (std::int64_t day = 0; day < 29; ++day) {
    trace.add(3, start + day * tz::kSecondsPerDay + 9 * tz::kSecondsPerHour);
  }
  ProfileBuildOptions options;
  const ProfileSet set = build_profiles(trace, options);
  expect_identical(set, reference_build_profiles(trace, options), "threshold");
  EXPECT_EQ(set.filtered_days, 1u);
  EXPECT_EQ(set.filtered_inactive, 2u);  // users 2 and 3
  ASSERT_EQ(set.users.size(), 11u);
}

TEST(ProfileOracle, HostileDaySpanStaysWithinEventBoundedMemory) {
  // Two events 10^15 s (about 1.2 x 10^10 days) apart stretch the day
  // range far past the event count.  A day array sized by the span would
  // need ~90 GB; the builder must fall back to counting days by sorting
  // and stay far below the 64 MiB budget.
  ActivityTrace trace = make_crowd(CrowdSpec{2000, midnight(2016, 9, 20), 60, false, 7});
  trace.add(42, -500'000'000'000'000);
  trace.add(42, 500'000'000'000'000);
  for (const bool filter : {true, false}) {
    ProfileBuildOptions options;
    options.filter_low_activity_days = filter;
    const ProfileSet expected = reference_build_profiles(trace, options);
    ProfileSet actual;
    {
      const AllocationBudget budget;
      actual = build_profiles(trace, options);
    }
    EXPECT_LT(AllocationBudget::bytes(), kAllocationBudget);
    expect_identical(actual, expected, filter ? "hostile, filter" : "hostile, no filter");
  }

  // The extremes of the instant range, beside an ordinary crowd.
  ActivityTrace extremes = make_crowd(CrowdSpec{500, midnight(2016, 9, 20), 30, true, 8});
  extremes.add(7, std::numeric_limits<tz::UtcSeconds>::min());
  extremes.add(7, std::numeric_limits<tz::UtcSeconds>::max());
  ProfileSet actual;
  {
    const AllocationBudget budget;
    actual = build_profiles(extremes, ProfileBuildOptions{});
  }
  expect_identical(actual, reference_build_profiles(extremes, ProfileBuildOptions{}), "extremes");
}

TEST(ProfileOracle, BudgetTripsOnSpanSizedAllocation) {
  // The budget itself must bite: one allocation the size a span-sized day
  // array would take is refused.
  const AllocationBudget budget;
  EXPECT_THROW((void)std::vector<std::size_t>(std::size_t{1} << 30), std::bad_alloc);
}

}  // namespace
}  // namespace tzgeo::core
