// Discussion (Section VII) — countermeasures and their cost.
//
//   A. "Forum shows and timestamps posts with random delay.  This is
//      possible.  But, to be effective, the random delay must be of at
//      least a few hours, reducing considerably the forum usability."
//      -> sweep the maximum display delay and measure how far the
//      recovered crowd center drifts, plus whether calibration notices.
//
//   B. "No timestamp on posts [...] it is enough to monitor the forum.
//      One might need to monitor a sufficiently large number of days."
//      -> sweep the monitoring window and measure how many members reach
//      the 30-post threshold and whether the crowd is recovered.
//
//   C. "What if the crowd coordinates and users deliberately post with a
//      profile of a different region?"  -> sweep the fraction of a Moscow
//      crowd that fakes a Chicago schedule and watch the mixture.
#include <cstdio>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "forum/crawler.hpp"
#include "forum/engine.hpp"
#include "forum/monitor.hpp"
#include "timezone/zone_db.hpp"
#include "util/ascii_chart.hpp"
#include "util/strings.hpp"

using namespace tzgeo;

namespace {

struct Rig {
  util::SimClock clock;
  forum::ForumEngine engine;
  tor::OnionTransport transport;
  std::string onion;

  Rig(forum::ForumConfig config, const synth::Dataset& crowd, std::int64_t start_utc)
      : clock(start_utc),
        engine(std::move(config), crowd),
        transport(clock, 4242) {
    onion = transport.host(1, [this](const tor::Request& request, std::int64_t now) {
      return engine.handle(request, now);
    });
  }
};

[[nodiscard]] std::int64_t at(std::int32_t y, std::int32_t m, std::int32_t d) {
  return tz::to_utc_seconds({tz::CivilDate{y, m, d}, 0, 0, 0});
}

[[nodiscard]] synth::Dataset moscow_crowd(std::uint64_t seed, double scale = 0.6) {
  synth::DatasetOptions options = bench::default_options(seed);
  options.scale = scale;
  return synth::make_forum_crowd(synth::paper_forum("CRD Club"), options);
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json_report{"discussion_countermeasures", argc, argv};

  const bench::ReferenceProfiles reference = bench::build_reference_profiles(0.1, 2016);

  // --- A: random display delay -------------------------------------------
  bench::print_section(
      "Countermeasure A — random display delay (true crowd at UTC+3/+4)");
  {
    std::vector<std::vector<std::string>> rows;
    for (const std::int64_t delay_hours : {0, 1, 3, 6, 12, 24}) {
      forum::ForumConfig config;
      config.name = "delayed-forum";
      config.server_offset_minutes = 180;
      config.policy = delay_hours == 0 ? forum::TimestampPolicy::kServerLocal
                                       : forum::TimestampPolicy::kRandomDelay;
      config.max_random_delay_seconds = delay_hours * 3600;
      Rig rig{config, moscow_crowd(11), at(2017, 3, 1)};

      const auto calibration = forum::calibrate_server_clock(rig.transport, rig.onion);
      const forum::ScrapeDump dump = forum::crawl_forum(rig.transport, rig.onion);
      const auto posts = forum::to_utc_posts(dump, calibration->offset_seconds);
      const auto profiles = core::build_profiles(bench::trace_of(posts), {});

      std::string center = "crowd unrecoverable";
      std::string drift = "-";
      try {
        const auto result = core::geolocate_crowd(profiles.users, reference.zones);
        center = util::format_fixed(result.components.front().mean_zone, 2);
        drift = util::format_fixed(result.components.front().mean_zone - 3.4, 2);
      } catch (const std::invalid_argument&) {
        // every profile flattened out — the countermeasure "worked", at the
        // cost the paper describes (a day of delay on every post)
      }
      rows.push_back({std::to_string(delay_hours) + "h",
                      calibration->stable ? "stable" : "UNSTABLE (detected)", center, drift});
    }
    std::printf("%s", util::text_table({"max delay", "calibration", "recovered center",
                                        "drift vs no-delay"},
                                       rows)
                          .c_str());
    std::printf(
        "\nA uniform 0..D delay shifts the inferred profile by ~D/2 and smears it;\n"
        "below a few hours the attack barely moves the verdict, exactly as the\n"
        "paper argues — and multi-probe calibration flags the forum anyway.\n");
  }

  // --- B: hidden timestamps, monitoring window ----------------------------
  bench::print_section("Countermeasure B — hidden timestamps, monitor-window sweep");
  {
    std::vector<std::vector<std::string>> rows;
    for (const int days : {7, 30, 90, 180, 300}) {
      forum::ForumConfig config;
      config.name = "hidden-forum";
      config.policy = forum::TimestampPolicy::kHidden;
      Rig rig{config, moscow_crowd(12), at(2016, 1, 10)};

      forum::MonitorOptions monitor;
      monitor.poll_interval_seconds = 3600;
      monitor.duration_seconds = static_cast<std::int64_t>(days) * 86400;
      const forum::ScrapeDump dump = forum::monitor_forum(rig.transport, rig.onion, monitor);
      const auto posts = forum::to_utc_posts_observed(dump);
      const auto profiles = core::build_profiles(bench::trace_of(posts), {});

      std::string verdict = "-";
      if (!profiles.users.empty()) {
        try {
          const auto result = core::geolocate_crowd(profiles.users, reference.zones);
          verdict = util::format_fixed(result.components.front().mean_zone, 2);
        } catch (const std::invalid_argument&) {
          verdict = "-";  // survivors all filtered as flat: keep monitoring
        }
      }
      rows.push_back({std::to_string(days), std::to_string(dump.records.size()),
                      std::to_string(profiles.users.size()), verdict});
    }
    std::printf("%s", util::text_table({"days monitored", "posts observed",
                                        "members >=30 posts", "recovered center"},
                                       rows)
                          .c_str());
    std::printf(
        "\nHiding timestamps only delays the analysis: after enough monitored days\n"
        "the observer's own stamps recover the crowd (Discussion VII).\n");
  }

  // --- C: coordinated deception -------------------------------------------
  bench::print_section(
      "Countermeasure C — crowd coordination (Moscow crowd faking Chicago hours)");
  {
    std::vector<std::vector<std::string>> rows;
    for (const double fraction : {0.0, 0.25, 0.5, 1.0}) {
      synth::Dataset crowd = moscow_crowd(13);
      // A `fraction` of members rigidly follows a UTC-6 schedule while
      // living at UTC+3: their local rhythm shifts by 3 - (-6) = 9 hours
      // (they post in the middle of their night).
      std::size_t fakers = 0;
      const auto target = static_cast<std::size_t>(fraction *
                                                   static_cast<double>(crowd.users.size()));
      for (auto& persona : crowd.users) {
        if (fakers >= target) break;
        persona.local_rates = synth::shift_rates(persona.local_rates, 9);
        ++fakers;
      }
      // Regenerate the trace with the doctored schedules.
      synth::DatasetOptions options = bench::default_options(13);
      util::Rng rng{99};
      crowd.events = synth::generate_population_trace(crowd.users, options.trace, rng);

      const auto profiles = core::build_profiles(bench::trace_of(crowd), {});
      const auto result = core::geolocate_crowd(profiles.users, reference.zones);
      std::string components;
      for (const auto& component : result.components) {
        if (!components.empty()) components += ", ";
        components += util::format_fixed(component.weight * 100.0, 0) + "% @ " +
                      util::format_fixed(component.mean_zone, 1);
      }
      rows.push_back({util::format_fixed(fraction * 100.0, 0) + "%", components});
    }
    std::printf("%s", util::text_table({"fakers", "recovered components"}, rows).c_str());
    std::printf(
        "\nPartial coordination just splits the crowd into two visible components\n"
        "(the decoy zone appears next to the real one); only perfect, sustained,\n"
        "crowd-wide coordination relocates the verdict — the paper's point that\n"
        "coordinating hundreds of anonymous users 'can be very hard'.\n");
  }
  return 0;
}
