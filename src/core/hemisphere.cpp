#include "core/hemisphere.hpp"

#include <algorithm>

namespace tzgeo::core {

namespace {

/// Seasonal windows, chosen away from the transition weeks so Northern and
/// Southern rules are unambiguous in both windows:
///   summer: Apr 1 .. Oct 1   (northern DST fully on, southern fully off)
///   winter: Jan 1 .. Mar 1  and  Nov 15 .. Dec 31 (the reverse)
struct SeasonWindows {
  tz::UtcSeconds summer_begin, summer_end;
  tz::UtcSeconds winter_a_begin, winter_a_end;
  tz::UtcSeconds winter_b_begin, winter_b_end;
};

[[nodiscard]] SeasonWindows windows_for(std::int32_t year) {
  const auto at = [](std::int32_t y, std::int32_t m, std::int32_t d) {
    return tz::to_utc_seconds(tz::CivilDateTime{tz::CivilDate{y, m, d}, 0, 0, 0});
  };
  SeasonWindows w{};
  w.summer_begin = at(year, 4, 1);
  w.summer_end = at(year, 10, 1);
  w.winter_a_begin = at(year, 1, 1);
  w.winter_a_end = at(year, 3, 1);
  w.winter_b_begin = at(year, 11, 15);
  w.winter_b_end = at(year + 1, 1, 1);
  return w;
}

}  // namespace

const char* to_string(HemisphereVerdict verdict) noexcept {
  switch (verdict) {
    case HemisphereVerdict::kNorthern: return "northern";
    case HemisphereVerdict::kSouthern: return "southern";
    case HemisphereVerdict::kNoDst: return "no-dst";
    case HemisphereVerdict::kInsufficient: return "insufficient-data";
  }
  return "unknown";
}

HemisphereResult classify_hemisphere(const std::vector<tz::UtcSeconds>& events,
                                     const HemisphereOptions& options) {
  const SeasonWindows w = windows_for(options.year);
  // Each season's (day, hour) cells; its Equation 1 profile follows.
  std::vector<std::int64_t> summer;
  std::vector<std::int64_t> winter;
  for (const tz::UtcSeconds t : events) {
    if (t >= w.summer_begin && t < w.summer_end) {
      summer.push_back(tz::hour_cell_of(t));
    } else if ((t >= w.winter_a_begin && t < w.winter_a_end) ||
               (t >= w.winter_b_begin && t < w.winter_b_end)) {
      winter.push_back(tz::hour_cell_of(t));
    }
  }

  HemisphereResult result;
  result.summer_posts = summer.size();
  result.winter_posts = winter.size();
  const HourlyProfile summer_profile = profile_of_cells(summer);
  const HourlyProfile winter_profile = profile_of_cells(winter);
  if (result.summer_posts < options.min_posts_per_season ||
      result.winter_posts < options.min_posts_per_season) {
    result.verdict = HemisphereVerdict::kInsufficient;
    return result;
  }

  result.distance_north = winter_profile.circular_emd_to(summer_profile.shifted(+1));
  result.distance_south = winter_profile.circular_emd_to(summer_profile.shifted(-1));
  result.distance_no_dst = winter_profile.circular_emd_to(summer_profile);

  const double best_shifted = std::min(result.distance_north, result.distance_south);
  if (best_shifted < result.distance_no_dst * (1.0 - options.margin)) {
    result.verdict = result.distance_north <= result.distance_south
                         ? HemisphereVerdict::kNorthern
                         : HemisphereVerdict::kSouthern;
  } else {
    result.verdict = HemisphereVerdict::kNoDst;
  }
  return result;
}

std::vector<RankedHemisphere> classify_top_users(const ActivityTrace& trace, std::size_t top_k,
                                                 const HemisphereOptions& options) {
  std::vector<RankedHemisphere> ranked;
  ranked.reserve(trace.user_count());
  for (const auto& [user, events] : trace.users()) {
    RankedHemisphere entry;
    entry.user = user;
    entry.posts = events.size();
    ranked.push_back(entry);
  }
  std::sort(ranked.begin(), ranked.end(), [](const RankedHemisphere& a,
                                             const RankedHemisphere& b) {
    return a.posts > b.posts;
  });
  if (ranked.size() > top_k) ranked.resize(top_k);
  for (auto& entry : ranked) {
    entry.result = classify_hemisphere(trace.events_of(entry.user), options);
  }
  return ranked;
}

HemisphereBreakdown classify_crowd(const ActivityTrace& trace,
                                   const HemisphereOptions& options) {
  HemisphereBreakdown breakdown;
  for (const auto& [user, events] : trace.users()) {
    switch (classify_hemisphere(events, options).verdict) {
      case HemisphereVerdict::kNorthern: ++breakdown.northern; break;
      case HemisphereVerdict::kSouthern: ++breakdown.southern; break;
      case HemisphereVerdict::kNoDst: ++breakdown.no_dst; break;
      case HemisphereVerdict::kInsufficient: ++breakdown.insufficient; break;
    }
  }
  return breakdown;
}

}  // namespace tzgeo::core
