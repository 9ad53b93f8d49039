// Table II — Gaussian fitting metrics.
//
// For every dataset of the paper (three single-country Twitter crowds, the
// two Fig. 6 synthetic mixes, the five Dark Web forums) this bench reports
// the average and standard deviation of the point-by-point distance
// between the fitted Gaussian mixture and the crowd placement
// distribution, plus the paper's baseline row (the Malaysian fit shifted
// by 12 hours).
#include <cstdio>

#include "bench_common.hpp"
#include "forum/crawler.hpp"
#include "forum/engine.hpp"
#include "stats/fit_metrics.hpp"
#include "timezone/zone_db.hpp"
#include "util/ascii_chart.hpp"
#include "util/strings.hpp"

using namespace tzgeo;

namespace {

struct Row {
  std::string dataset;
  std::string paper;  ///< paper's "average / stddev"
  stats::PointwiseFitMetrics ours;
};

[[nodiscard]] core::GeolocationResult geolocate_region(const std::string& name,
                                                       std::size_t users, std::uint64_t seed,
                                                       const core::TimeZoneProfiles& zones) {
  const core::ProfileSet profiles = bench::profile_region(name, users, seed);
  return core::geolocate_crowd(profiles.users, zones);
}

[[nodiscard]] core::GeolocationResult geolocate_forum(const std::string& name,
                                                      const core::TimeZoneProfiles& zones) {
  const synth::ForumCrowdSpec& spec = synth::paper_forum(name);
  synth::DatasetOptions options = bench::default_options(util::hash64(name));
  const synth::Dataset crowd = synth::make_forum_crowd(spec, options);

  forum::ForumConfig config;
  config.name = spec.forum_name;
  config.server_offset_minutes = spec.server_offset_minutes;
  forum::ForumEngine engine{config, crowd};
  util::SimClock clock{tz::to_utc_seconds({tz::CivilDate{2017, 4, 1}, 0, 0, 0})};
  tor::OnionTransport transport{clock, options.seed};
  const std::string onion =
      transport.host(util::hash64(spec.onion_address),
                     [&engine](const tor::Request& request, std::int64_t now) {
                       return engine.handle(request, now);
                     });
  const auto calibration = forum::calibrate_server_clock(transport, onion);
  const forum::ScrapeDump dump = forum::crawl_forum(transport, onion);
  const auto posts = forum::to_utc_posts(dump, calibration->offset_seconds);
  const core::ProfileSet profiles = core::build_profiles(bench::trace_of(posts), {});
  return core::geolocate_crowd(profiles.users, zones);
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json_report{"table2_fit_metrics", argc, argv};

  const bench::ReferenceProfiles reference = bench::build_reference_profiles(0.15, 2016);
  std::vector<Row> rows;

  // --- Single-country Twitter crowds -------------------------------------
  const core::GeolocationResult malaysia =
      geolocate_region("Malaysia", 600, 33, reference.zones);
  rows.push_back({"Malaysian Twitter", "0.009 / 0.013", malaysia.fit_metrics});
  rows.push_back({"German Twitter", "0.009 / 0.009",
                  geolocate_region("Germany", 470, 31, reference.zones).fit_metrics});
  rows.push_back({"French Twitter", "0.008 / 0.010",
                  geolocate_region("France", 600, 32, reference.zones).fit_metrics});

  // --- Synthetic multi-region mixes (Fig. 6) ------------------------------
  {
    synth::DatasetOptions options = bench::default_options(9);
    options.scale = 0.25;
    const synth::Dataset dataset = synth::make_synthetic_mix_a(options);
    const core::ProfileSet profiles = core::build_profiles(bench::trace_of(dataset), {});
    rows.push_back({"Synthetic dataset (a)", "0.011 / 0.010",
                    core::geolocate_crowd(profiles.users, reference.zones).fit_metrics});
  }
  {
    std::vector<core::UserProfileEntry> merged;
    synth::DatasetOptions options = bench::default_options(5);
    options.scale = 0.3;
    for (const char* name : {"Illinois", "Germany", "Malaysia"}) {
      const auto& region = synth::table1_region(name);
      const auto users = static_cast<std::size_t>(
          static_cast<double>(region.active_users) * options.scale);
      const core::ProfileSet profiles = bench::profile_region(name, users, options.seed);
      merged.insert(merged.end(), profiles.users.begin(), profiles.users.end());
    }
    rows.push_back({"Synthetic dataset (b)", "0.012 / 0.010",
                    core::geolocate_crowd(merged, reference.zones).fit_metrics});
  }

  // --- The five Dark Web forums -------------------------------------------
  rows.push_back({"CRD Club", "0.007 / 0.006",
                  geolocate_forum("CRD Club", reference.zones).fit_metrics});
  rows.push_back({"Italian DarkNet Community", "0.014 / 0.016",
                  geolocate_forum("Italian DarkNet Community", reference.zones).fit_metrics});
  rows.push_back({"Dream Market forum", "0.011 / 0.008",
                  geolocate_forum("Dream Market", reference.zones).fit_metrics});
  rows.push_back({"The Majestic Garden", "0.009 / 0.011",
                  geolocate_forum("The Majestic Garden", reference.zones).fit_metrics});
  rows.push_back({"Pedo support community", "0.012 / 0.010",
                  geolocate_forum("Pedo Support Community", reference.zones).fit_metrics});

  // --- Baseline: Malaysian fit shifted 12 hours ---------------------------
  const stats::PointwiseFitMetrics baseline = stats::shifted_baseline_metrics(
      malaysia.placement.distribution, malaysia.fitted_curve, 12);
  rows.push_back({"Baseline", "0.081 / 0.070", baseline});

  bench::print_section("Table II — Gaussian fitting metrics (ours vs paper)");
  std::vector<std::vector<std::string>> table;
  for (const auto& row : rows) {
    table.push_back({row.dataset, row.paper,
                     util::format_fixed(row.ours.average, 3) + " / " +
                         util::format_fixed(row.ours.stddev, 3)});
  }
  std::printf("%s", util::text_table({"Dataset", "paper avg / std", "ours avg / std"}, table)
                        .c_str());
  bench::export_series("table2_fit_metrics", {"dataset", "paper_avg_std", "ours_avg_std"},
                       table);
  std::printf(
      "\nShape check: every fit row must sit far below the 12h-shift baseline row,\n"
      "as in the paper (baseline is ~an order of magnitude worse).\n");
  return 0;
}
