#include "core/dossier.hpp"

#include <algorithm>

#include "core/placement_metrics.hpp"
#include "core/report.hpp"
#include "core/soa_crowd.hpp"
#include "core/thread_pool.hpp"
#include "util/strings.hpp"

namespace tzgeo::core {

namespace {

/// Places the profiled users as one SoA crowd and fills each dossier's
/// placement and flat flag.  A crowd under the pooled pass's serial cutoff
/// (a single dossier) is placed on the calling thread.
void place_dossiers(std::vector<UserDossier>& dossiers,
                    const std::vector<UserProfileEntry>& profiled,
                    const TimeZoneProfiles& zones) {
  if (profiled.empty()) return;
  const PlacementEngine engine{zones};
  SoaCrowd crowd;
  detail::build_soa_crowd(crowd, profiled);
  std::vector<UserPlacement> placements(profiled.size());
  std::vector<double> to_uniform(profiled.size());
  detail::place_soa_pooled(engine, crowd, placements.data(), to_uniform.data());
  for (std::size_t i = 0; i < dossiers.size(); ++i) {
    dossiers[i].placement = placements[i];
    dossiers[i].flat = to_uniform[i] < placements[i].distance;
  }
}

/// The event-derived verdicts of one dossier (everything except the
/// placement-dependent fields filled by the SoA pass).
void finish_dossier(UserDossier& dossier, const std::vector<tz::UtcSeconds>& events,
                    const DossierOptions& options) {
  dossier.hemisphere = classify_hemisphere(events, options.hemisphere);
  dossier.rest_days =
      detect_rest_days(events, dossier.placement.zone_hours, options.rest_days);
}

}  // namespace

UserDossier build_dossier(std::uint64_t user, const std::vector<tz::UtcSeconds>& events,
                          const TimeZoneProfiles& zones, const DossierOptions& options) {
  std::vector<UserDossier> dossiers(1);
  UserDossier& dossier = dossiers.front();
  dossier.user = user;
  dossier.posts = events.size();
  dossier.enough_data = events.size() >= options.min_posts;
  std::vector<std::int64_t> cell_scratch;
  dossier.profile = profile_of_events(events, cell_scratch);
  place_dossiers(dossiers, {UserProfileEntry{user, dossier.posts, dossier.profile}}, zones);
  finish_dossier(dossier, events, options);
  return std::move(dossier);
}

std::vector<UserDossier> build_top_dossiers(const ActivityTrace& trace,
                                            const TimeZoneProfiles& zones, std::size_t top_k,
                                            const DossierOptions& options) {
  std::vector<std::pair<std::uint64_t, std::size_t>> ranked;
  ranked.reserve(trace.user_count());
  for (const auto& [user, events] : trace.users()) {
    ranked.emplace_back(user, events.size());
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (ranked.size() > top_k) ranked.resize(top_k);

  std::vector<UserDossier> dossiers(ranked.size());

  // Three passes instead of one per-user loop, so the placement work runs
  // through the SoA group kernels (and its crowd CDFs are computed once):
  //   1. profiles (parallel over users);
  //   2. placement + uniform distances (SoA batch over the whole crowd);
  //   3. event-derived verdicts, which need each user's placed zone
  //      (parallel over users).
  // Per-user results are pure functions of the profile, so each dossier is
  // bit-identical to build_dossier's one-user crowd.
  std::vector<UserProfileEntry> profiled(ranked.size());
  ThreadPool::global().for_chunks(ranked.size(), 0, [&](std::size_t begin, std::size_t end) {
    std::vector<std::int64_t> cell_scratch;  // reused across the chunk's users
    for (std::size_t i = begin; i < end; ++i) {
      UserDossier& dossier = dossiers[i];
      dossier.user = ranked[i].first;
      dossier.posts = ranked[i].second;
      dossier.enough_data = ranked[i].second >= options.min_posts;
      dossier.profile = profile_of_events(trace.events_of(ranked[i].first), cell_scratch);
      profiled[i] = UserProfileEntry{dossier.user, dossier.posts, dossier.profile};
    }
  });

  place_dossiers(dossiers, profiled, zones);

  ThreadPool::global().for_chunks(ranked.size(), 0, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      finish_dossier(dossiers[i], trace.events_of(ranked[i].first), options);
    }
  });
  return dossiers;
}

std::string describe_dossier(const UserDossier& dossier) {
  std::string out = "dossier for user " + std::to_string(dossier.user) + " (" +
                    std::to_string(dossier.posts) + " posts";
  if (!dossier.enough_data) out += ", BELOW the activity threshold";
  out += ")\n";
  if (dossier.flat) {
    out += "  profile: FLAT (bot-like; every verdict below is unreliable)\n";
  }
  out += "  time zone: " + zone_label(dossier.placement.zone_hours) + " (" +
         zone_cities(dossier.placement.zone_hours) + ")\n";
  out += "    distance " + util::format_fixed(dossier.placement.distance, 3) +
         ", runner-up margin " + util::format_fixed(dossier.placement.margin(), 3) + "\n";
  out += "  hemisphere: " + std::string{to_string(dossier.hemisphere.verdict)} +
         "  [north " + util::format_fixed(dossier.hemisphere.distance_north, 3) + ", south " +
         util::format_fixed(dossier.hemisphere.distance_south, 3) + ", no-dst " +
         util::format_fixed(dossier.hemisphere.distance_no_dst, 3) + "]\n";
  out += "  rest days: " + std::string{to_string(dossier.rest_days.pattern)};
  if (dossier.rest_days.pattern != RestPattern::kUndetected) {
    out += " (contrast " + util::format_fixed(dossier.rest_days.contrast, 2) + ")";
  }
  out += "\n";
  return out;
}

}  // namespace tzgeo::core
