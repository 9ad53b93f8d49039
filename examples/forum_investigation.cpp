// A full Dark Web forum investigation, end to end.
//
// This walks through the paper's Section V methodology against a simulated
// hidden service:
//   1. host a forum as a Tor hidden service (simulated network);
//   2. sign up and post in the Welcome thread to calibrate the server
//      clock offset — the forum deliberately shows a shifted clock;
//   3. crawl every thread page through rendezvous circuits (with circuit
//      failures and retries);
//   4. convert displayed timestamps to UTC, build the Eq. 1 profiles,
//      polish out flat/bot profiles;
//   5. place the crowd on the 24 world time zones and fit the mixture.
#include <cstdio>

#include "core/geolocator.hpp"
#include "core/profile_builder.hpp"
#include "core/report.hpp"
#include "forum/calibration.hpp"
#include "forum/crawler.hpp"
#include "forum/engine.hpp"
#include "synth/dataset.hpp"
#include "timezone/zone_db.hpp"
#include "util/sim_clock.hpp"

using namespace tzgeo;

namespace {

core::TimeZoneProfiles reference_zones() {
  std::vector<core::RegionalContribution> contributions;
  for (const auto& region : synth::table1_regions()) {
    synth::DatasetOptions options;
    options.scale = 0.05;
    const synth::Dataset dataset = synth::make_region_dataset(
        region, std::max<std::size_t>(2, region.active_users / 20), options);
    core::ActivityTrace trace;
    for (const auto& event : dataset.events) trace.add(event.user, event.time);
    core::ProfileBuildOptions build;
    build.binning = core::HourBinning::kLocal;
    build.zone = &tz::zone(region.zone);
    const core::ProfileSet profiles = core::build_profiles(trace, build);
    if (profiles.users.empty()) continue;
    contributions.push_back(core::make_contribution(
        region.name, tz::zone(region.zone).standard_offset_hours(), profiles,
        core::HourBinning::kLocal));
  }
  return core::TimeZoneProfiles::from_regions(contributions);
}

}  // namespace

int main() {
  std::printf("== Step 0: build reference time-zone profiles from known crowds\n");
  const core::TimeZoneProfiles zones = reference_zones();

  std::printf("== Step 1: the target — a marketplace forum, crowd unknown to us\n");
  synth::DatasetOptions options;
  options.seed = 1337;
  const synth::Dataset crowd =
      synth::make_forum_crowd(synth::paper_forum("The Majestic Garden"), options);

  forum::ForumConfig config;
  config.name = "The Majestic Garden";
  config.server_offset_minutes = -7 * 60;  // server clock deliberately shifted
  config.policy = forum::TimestampPolicy::kServerLocal;
  forum::ForumEngine engine{config, crowd};

  util::SimClock clock{tz::to_utc_seconds({tz::CivilDate{2017, 5, 1}, 0, 0, 0})};
  tor::TransportOptions transport_options;
  transport_options.failure_probability = 0.02;  // circuits drop now and then
  tor::OnionTransport transport{clock, 77, transport_options};
  const std::string onion =
      transport.host(util::hash64("majestic"), [&engine](const tor::Request& r, std::int64_t t) {
        return engine.handle(r, t);
      });
  std::printf("   hidden service up at %s.onion (%zu members, %zu posts)\n\n", onion.c_str(),
              engine.user_count(), engine.post_count());

  std::printf("== Step 2: calibrate the server clock via the Welcome thread\n");
  const auto calibration = forum::calibrate_server_clock(transport, onion);
  if (!calibration) {
    std::printf("   forum hides timestamps — see the live_monitor example\n");
    return 1;
  }
  std::printf("   displayed clock is %+.1f hours from UTC (stable: %s)\n\n",
              static_cast<double>(calibration->offset_seconds) / 3600.0,
              calibration->stable ? "yes" : "NO - possible random-delay countermeasure");

  std::printf("== Step 3: crawl the forum over Tor\n");
  const forum::ScrapeDump dump = forum::crawl_forum(transport, onion);
  const auto& stats = transport.stats();
  std::printf("   %zu posts from %zu pages; %zu requests, %zu circuit failures survived\n\n",
              dump.records.size(), dump.pages_fetched, stats.requests, stats.failures);

  std::printf("== Step 4: normalize to UTC and build activity profiles\n");
  const auto posts = forum::to_utc_posts(dump, calibration->offset_seconds);
  core::ActivityTrace trace;
  for (const auto& post : posts) trace.add(post.author, post.utc_time);
  const core::ProfileSet profiles = core::build_profiles(trace, {});
  std::printf("   %zu active members (>=30 posts); %zu below threshold\n\n",
              profiles.users.size(), profiles.filtered_inactive);

  std::printf("== Step 5: geolocate the crowd\n");
  const core::GeolocationResult result = core::geolocate_crowd(profiles.users, zones);
  std::printf("%s\n", core::placement_chart("The Majestic Garden — placement", result).c_str());
  std::printf("%s", core::describe_geolocation("Findings", result).c_str());
  std::printf(
      "\nThe paper's verdict for this forum: \"This is a mostly American forum\"\n"
      "(largest component at UTC-6, smaller at UTC+1).\n");
  return 0;
}
