#include "core/hemisphere.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "synth/persona.hpp"
#include "synth/trace_gen.hpp"
#include "timezone/zone_db.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

/// Generates a year of activity for one regular persona in `zone_name`.
[[nodiscard]] std::vector<tz::UtcSeconds> year_of_activity(const std::string& zone_name,
                                                           double posts_per_year,
                                                           std::uint64_t seed) {
  util::Rng rng{seed};
  synth::PersonaMix mix;
  mix.bot_fraction = 0.0;
  mix.shift_worker_fraction = 0.0;
  synth::Persona persona = synth::draw_persona(1, "test", zone_name, mix, rng);
  persona.posts_per_year = posts_per_year;
  synth::TraceOptions options;
  options.holidays = synth::HolidayCalendar::none();
  const auto events = synth::generate_trace(persona, tz::zone(zone_name), options, rng);
  std::vector<tz::UtcSeconds> times;
  times.reserve(events.size());
  for (const auto& e : events) times.push_back(e.time);
  return times;
}

TEST(Hemisphere, NorthernUserDetected) {
  const auto events = year_of_activity("Europe/Berlin", 3000.0, 1);
  const HemisphereResult result = classify_hemisphere(events);
  EXPECT_EQ(result.verdict, HemisphereVerdict::kNorthern);
  EXPECT_LT(result.distance_north, result.distance_south);
  EXPECT_LT(result.distance_north, result.distance_no_dst);
}

TEST(Hemisphere, SouthernUserDetected) {
  const auto events = year_of_activity("America/Sao_Paulo", 3000.0, 2);
  const HemisphereResult result = classify_hemisphere(events);
  EXPECT_EQ(result.verdict, HemisphereVerdict::kSouthern);
  EXPECT_LT(result.distance_south, result.distance_north);
}

TEST(Hemisphere, NoDstUserDetected) {
  const auto events = year_of_activity("Asia/Tokyo", 3000.0, 3);
  const HemisphereResult result = classify_hemisphere(events);
  EXPECT_EQ(result.verdict, HemisphereVerdict::kNoDst);
}

TEST(Hemisphere, MoscowHasNoDst) {
  const auto events = year_of_activity("Europe/Moscow", 3000.0, 4);
  EXPECT_EQ(classify_hemisphere(events).verdict, HemisphereVerdict::kNoDst);
}

TEST(Hemisphere, UsWestCoastNorthern) {
  const auto events = year_of_activity("America/Los_Angeles", 3000.0, 5);
  EXPECT_EQ(classify_hemisphere(events).verdict, HemisphereVerdict::kNorthern);
}

TEST(Hemisphere, AustraliaSouthern) {
  const auto events = year_of_activity("Australia/Sydney", 3000.0, 6);
  EXPECT_EQ(classify_hemisphere(events).verdict, HemisphereVerdict::kSouthern);
}

TEST(Hemisphere, InsufficientDataReported) {
  const auto events = year_of_activity("Europe/Berlin", 40.0, 7);
  HemisphereOptions options;
  options.min_posts_per_season = 30;
  const HemisphereResult result = classify_hemisphere(events, options);
  EXPECT_EQ(result.verdict, HemisphereVerdict::kInsufficient);
}

TEST(Hemisphere, EmptyEventsInsufficient) {
  EXPECT_EQ(classify_hemisphere({}).verdict, HemisphereVerdict::kInsufficient);
}

TEST(Hemisphere, SeasonPostCountsReported) {
  const auto events = year_of_activity("Europe/Rome", 2000.0, 8);
  const HemisphereResult result = classify_hemisphere(events);
  EXPECT_GT(result.winter_posts, 100u);
  EXPECT_GT(result.summer_posts, 300u);  // summer window is longer
}

TEST(Hemisphere, VerdictLabels) {
  EXPECT_STREQ(to_string(HemisphereVerdict::kNorthern), "northern");
  EXPECT_STREQ(to_string(HemisphereVerdict::kSouthern), "southern");
  EXPECT_STREQ(to_string(HemisphereVerdict::kNoDst), "no-dst");
  EXPECT_STREQ(to_string(HemisphereVerdict::kInsufficient), "insufficient-data");
}

TEST(ClassifyTopUsers, RanksByActivityAndLimits) {
  ActivityTrace trace;
  const auto heavy = year_of_activity("Europe/Berlin", 3000.0, 9);
  const auto medium = year_of_activity("America/Sao_Paulo", 2000.0, 10);
  const auto light = year_of_activity("Asia/Tokyo", 500.0, 11);
  for (const auto t : heavy) trace.add(1, t);
  for (const auto t : medium) trace.add(2, t);
  for (const auto t : light) trace.add(3, t);

  const auto ranked = classify_top_users(trace, 2);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].user, 1u);
  EXPECT_EQ(ranked[1].user, 2u);
  EXPECT_GE(ranked[0].posts, ranked[1].posts);
  EXPECT_EQ(ranked[0].result.verdict, HemisphereVerdict::kNorthern);
  EXPECT_EQ(ranked[1].result.verdict, HemisphereVerdict::kSouthern);
}

TEST(ClassifyTopUsers, FewerUsersThanRequested) {
  ActivityTrace trace;
  for (const auto t : year_of_activity("Europe/Berlin", 1500.0, 12)) trace.add(7, t);
  const auto ranked = classify_top_users(trace, 5);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].user, 7u);
}

TEST(ClassifyCrowd, BreakdownCountsEveryUser) {
  ActivityTrace trace;
  std::uint64_t next = 1;
  for (int i = 0; i < 4; ++i) {
    for (const auto t : year_of_activity("Europe/Berlin", 2000.0, 200 + next)) {
      trace.add(next, t);
    }
    ++next;
  }
  for (int i = 0; i < 3; ++i) {
    for (const auto t : year_of_activity("Australia/Sydney", 2000.0, 300 + next)) {
      trace.add(next, t);
    }
    ++next;
  }
  for (int i = 0; i < 2; ++i) {
    for (const auto t : year_of_activity("Asia/Tokyo", 2000.0, 400 + next)) {
      trace.add(next, t);
    }
    ++next;
  }
  // One low-volume user lands in "insufficient".
  for (const auto t : year_of_activity("Europe/Berlin", 15.0, 500)) trace.add(next, t);

  const HemisphereBreakdown breakdown = classify_crowd(trace);
  EXPECT_EQ(breakdown.northern, 4u);
  EXPECT_EQ(breakdown.southern, 3u);
  EXPECT_EQ(breakdown.no_dst, 2u);
  EXPECT_EQ(breakdown.insufficient, 1u);
  EXPECT_EQ(breakdown.classified(), 9u);
}

TEST(ClassifyCrowd, EmptyTrace) {
  const HemisphereBreakdown breakdown = classify_crowd(ActivityTrace{});
  EXPECT_EQ(breakdown.classified(), 0u);
  EXPECT_EQ(breakdown.insufficient, 0u);
}

// The paper's validation: 5 users each from UK, Germany, Italy -> all
// northern; 5 from Brazil -> all southern (Section V-F). The zone is held
// as a std::string so gtest prints its text, not its address, and the
// discovered test names stay the same from one build to the next.
using ZoneCase = std::tuple<std::string, HemisphereVerdict>;

class HemisphereValidation : public ::testing::TestWithParam<ZoneCase> {};

TEST_P(HemisphereValidation, FiveMostActiveUsersClassified) {
  const auto [zone_name, expected] = GetParam();
  int correct = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto events = year_of_activity(zone_name, 2500.0, 100 + i);
    if (classify_hemisphere(events).verdict == expected) ++correct;
  }
  EXPECT_EQ(correct, 5) << zone_name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperRegions, HemisphereValidation,
    ::testing::Values(ZoneCase{"Europe/London", HemisphereVerdict::kNorthern},
                      ZoneCase{"Europe/Berlin", HemisphereVerdict::kNorthern},
                      ZoneCase{"Europe/Rome", HemisphereVerdict::kNorthern},
                      ZoneCase{"America/Sao_Paulo", HemisphereVerdict::kSouthern}),
    [](const ::testing::TestParamInfo<ZoneCase>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '/') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace tzgeo::core
