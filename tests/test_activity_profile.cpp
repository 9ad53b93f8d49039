#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/activity.hpp"
#include "core/profile.hpp"

namespace tzgeo::core {
namespace {

TEST(UserIdOf, StableAndDistinct) {
  EXPECT_EQ(user_id_of("wolf3"), user_id_of("wolf3"));
  EXPECT_NE(user_id_of("wolf3"), user_id_of("ghost"));
}

TEST(ActivityTrace, AddAndCount) {
  ActivityTrace trace;
  trace.add(1, 100);
  trace.add(1, 200);
  trace.add(2, 150);
  EXPECT_EQ(trace.user_count(), 2u);
  EXPECT_EQ(trace.event_count(), 3u);
  EXPECT_EQ(trace.events_of(1).size(), 2u);
  EXPECT_TRUE(trace.events_of(99).empty());
}

TEST(ActivityTrace, StringIdentities) {
  ActivityTrace trace;
  trace.add("alice", 100);
  trace.add("alice", 200);
  EXPECT_EQ(trace.events_of(user_id_of("alice")).size(), 2u);
}

TEST(ActivityTrace, WindowFilters) {
  ActivityTrace trace;
  trace.add(1, 100);
  trace.add(1, 200);
  trace.add(1, 300);
  const ActivityTrace windowed = trace.window(150, 300);
  EXPECT_EQ(windowed.event_count(), 1u);
  EXPECT_EQ(windowed.events_of(1).front(), 200);
}

TEST(ActivityTrace, WindowDropsEmptyUsers) {
  ActivityTrace trace;
  trace.add(1, 100);
  trace.add(2, 500);
  const ActivityTrace windowed = trace.window(0, 200);
  EXPECT_EQ(windowed.user_count(), 1u);
}

TEST(ActivityTrace, UsersViewIsIdSorted) {
  ActivityTrace trace;
  trace.add(30, 1);
  trace.add(10, 2);
  trace.add(20, 3);
  trace.add(10, 4);
  std::vector<std::uint64_t> ids;
  for (const auto& [id, events] : trace.users()) ids.push_back(id);
  const std::vector<std::uint64_t> expected = {10, 20, 30};
  EXPECT_EQ(ids, expected);
}

TEST(ActivityTrace, UsersViewEventsInInsertionOrder) {
  ActivityTrace trace;
  trace.add(5, 300);
  trace.add(5, 100);
  trace.add(5, 200);
  for (const auto& [id, events] : trace.users()) {
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0], 300);  // stored order, never re-sorted
    EXPECT_EQ(events[1], 100);
    EXPECT_EQ(events[2], 200);
  }
}

TEST(ActivityTrace, AdoptAppendsAfterExistingEvents) {
  ActivityTrace trace;
  trace.add(1, 10);
  trace.add(2, 20);
  trace.adopt(2, std::vector<tz::UtcSeconds>{21, 22});  // existing user: appended
  trace.adopt(3, std::vector<tz::UtcSeconds>{30});      // new user
  EXPECT_EQ(trace.user_count(), 3u);
  EXPECT_EQ(trace.event_count(), 5u);
  const std::vector<tz::UtcSeconds> expected = {20, 21, 22};
  EXPECT_EQ(trace.events_of(2), expected);
  EXPECT_EQ(trace.events_of(3).front(), 30);
}

TEST(ActivityTrace, AdoptTakesANewUsersVectorWhole) {
  ActivityTrace trace;
  std::vector<tz::UtcSeconds> events = {70, 71, 72};
  const tz::UtcSeconds* storage = events.data();
  trace.adopt(7, std::move(events));
  EXPECT_EQ(trace.event_count(), 3u);
  EXPECT_EQ(trace.events_of(7).data(), storage);  // moved, not copied
}

TEST(ActivityTrace, EventCountIsTotalAcrossUsers) {
  ActivityTrace trace;
  EXPECT_EQ(trace.event_count(), 0u);
  for (int i = 0; i < 100; ++i) trace.add(i % 7, i);
  EXPECT_EQ(trace.event_count(), 100u);
  EXPECT_EQ(trace.user_count(), 7u);
}

TEST(HourlyProfile, DefaultIsUniform) {
  const HourlyProfile profile;
  for (std::size_t h = 0; h < kProfileBins; ++h) {
    EXPECT_DOUBLE_EQ(profile[h], 1.0 / 24.0);
  }
  EXPECT_NEAR(profile.flatness(), 0.0, 1e-12);
}

TEST(HourlyProfile, FromCountsNormalizes) {
  std::vector<double> counts(24, 0.0);
  counts[10] = 3.0;
  counts[20] = 1.0;
  const auto profile = HourlyProfile::from_counts(counts);
  EXPECT_DOUBLE_EQ(profile[10], 0.75);
  EXPECT_DOUBLE_EQ(profile[20], 0.25);
}

TEST(HourlyProfile, FromCountsValidates) {
  EXPECT_THROW(HourlyProfile::from_counts(std::vector<double>(23, 1.0)),
               std::invalid_argument);
  std::vector<double> negative(24, 1.0);
  negative[0] = -1.0;
  EXPECT_THROW(HourlyProfile::from_counts(negative), std::invalid_argument);
}

TEST(HourlyProfile, AllZeroCountsYieldUniform) {
  const auto profile = HourlyProfile::from_counts(std::vector<double>(24, 0.0));
  EXPECT_DOUBLE_EQ(profile[7], 1.0 / 24.0);
}

TEST(HourlyProfile, ShiftedMovesMass) {
  std::vector<double> counts(24, 0.0);
  counts[20] = 1.0;
  const auto profile = HourlyProfile::from_counts(counts);
  const auto shifted = profile.shifted(3);
  EXPECT_DOUBLE_EQ(shifted[23], 1.0);
  const auto back = profile.shifted(-21);  // equivalent shift
  EXPECT_EQ(shifted, back);
}

TEST(HourlyProfile, EmdOfShiftGrowsWithDistance) {
  std::vector<double> counts(24, 0.0);
  counts[12] = 1.0;
  const auto profile = HourlyProfile::from_counts(counts);
  EXPECT_LT(profile.emd_to(profile.shifted(1)), profile.emd_to(profile.shifted(3)));
  EXPECT_DOUBLE_EQ(profile.emd_to(profile), 0.0);
}

TEST(HourlyProfile, CircularEmdWraps) {
  std::vector<double> counts(24, 0.0);
  counts[23] = 1.0;
  const auto profile = HourlyProfile::from_counts(counts);
  const auto wrapped = profile.shifted(2);  // mass at bin 1
  EXPECT_DOUBLE_EQ(profile.circular_emd_to(wrapped), 2.0);
  EXPECT_DOUBLE_EQ(profile.emd_to(wrapped), 22.0);  // linear pays the detour
}

TEST(HourlyProfile, PearsonOfIdenticalIsOne) {
  std::vector<double> counts(24, 1.0);
  counts[20] = 8.0;
  counts[9] = 4.0;
  const auto profile = HourlyProfile::from_counts(counts);
  EXPECT_NEAR(profile.pearson_to(profile), 1.0, 1e-12);
}

TEST(HourlyProfile, FlatnessOfPeakyProfileIsLarge) {
  std::vector<double> counts(24, 0.0);
  counts[20] = 1.0;
  const auto peaky = HourlyProfile::from_counts(counts);
  EXPECT_GT(peaky.flatness(), 3.0);
}

TEST(AggregateProfiles, EqualsMeanOfProfiles) {
  std::vector<double> a(24, 0.0);
  a[0] = 1.0;
  std::vector<double> b(24, 0.0);
  b[12] = 1.0;
  const std::vector<HourlyProfile> profiles{HourlyProfile::from_counts(a),
                                            HourlyProfile::from_counts(b)};
  const auto population = aggregate_profiles(profiles);
  EXPECT_DOUBLE_EQ(population[0], 0.5);
  EXPECT_DOUBLE_EQ(population[12], 0.5);
}

TEST(AggregateProfiles, EmptyThrows) {
  EXPECT_THROW(aggregate_profiles(std::vector<HourlyProfile>{}), std::invalid_argument);
}

TEST(AggregateProfiles, WeightsUsersEqually) {
  // Equation 2 gives every *user* the same weight regardless of volume;
  // a profile built from many posts counts the same as one from few.
  std::vector<double> heavy(24, 0.0);
  heavy[6] = 1000.0;
  std::vector<double> light(24, 0.0);
  light[18] = 3.0;
  const std::vector<HourlyProfile> profiles{HourlyProfile::from_counts(heavy),
                                            HourlyProfile::from_counts(light)};
  const auto population = aggregate_profiles(profiles);
  EXPECT_DOUBLE_EQ(population[6], population[18]);
}

}  // namespace
}  // namespace tzgeo::core
