// tzgeo command-line interface.
//
// The investigator-facing entry point: feed it a CSV of (author, utc_time)
// posts — or a persisted crawl dump — and get the crowd geolocation report,
// hemisphere analysis, or rest-day breakdown, without writing any code.
//
//   tzgeo_cli analyze    --input posts.csv [--dump] [--offset SECONDS]
//                        [--bootstrap N] [--no-flat-filter]
//   tzgeo_cli hemisphere --input posts.csv [--top N] [--year YYYY]
//   tzgeo_cli weekly     --input posts.csv
//   tzgeo_cli demo
//
// Reference time-zone profiles are built from the library's synthetic
// ground truth (scale 0.05); swap in your own labelled data for serious
// use (see examples/quickstart.cpp).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/bootstrap.hpp"
#include "core/dossier.hpp"
#include "core/hemisphere.hpp"
#include "core/ingest.hpp"
#include "core/profile_builder.hpp"
#include "core/report.hpp"
#include "core/report_json.hpp"
#include "core/weekly.hpp"
#include "forum/calibration.hpp"
#include "forum/io.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "synth/dataset.hpp"
#include "timezone/zone_db.hpp"
#include "util/strings.hpp"

using namespace tzgeo;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;  ///< --key value / --flag ""

  [[nodiscard]] bool has(const std::string& key) const { return options.contains(key); }
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const auto value = util::parse_int(it->second);
    if (!value) throw std::invalid_argument("--" + key + " expects an integer");
    return *value;
  }
};

[[nodiscard]] Args parse_args(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (!util::starts_with(token, "--")) {
      throw std::invalid_argument("unexpected argument: " + token);
    }
    token = token.substr(2);
    // A value follows unless the next token is another flag or absent.
    if (i + 1 < argc && !util::starts_with(argv[i + 1], "--")) {
      args.options[token] = argv[++i];
    } else {
      args.options[token] = "";
    }
  }
  return args;
}

void print_usage() {
  std::printf(
      "tzgeo - time-zone geolocation of crowds from posting timestamps\n"
      "\n"
      "usage: tzgeo_cli <command> [options]\n"
      "\n"
      "commands:\n"
      "  analyze     geolocate the crowd of a posts CSV\n"
      "      --input FILE       author,utc_time CSV (or a crawl dump with --dump)\n"
      "      --dump             input is a persisted crawl dump (forum/io format)\n"
      "      --offset SECONDS   server-clock offset to subtract from display times\n"
      "      --bootstrap N      add N-resample confidence intervals\n"
      "      --no-flat-filter   keep flat (bot-like) profiles\n"
      "      --json             print machine-readable JSON instead of text\n"
      "  hemisphere  DST-based north/south classification of the top users\n"
      "      --input FILE --top N (default 5) --year YYYY (default 2016)\n"
      "  weekly      rest-day pattern breakdown of the placed crowd\n"
      "      --input FILE\n"
      "  dossier     full per-user readout (zone, hemisphere, rest days)\n"
      "      --input FILE [--author NAME | --top N (default 3)]\n"
      "  compare     component drift between two crawls of the same board\n"
      "      --before FILE --after FILE\n"
      "  demo        run a self-contained synthetic demonstration\n"
      "\n"
      "observability (any command):\n"
      "  --metrics-out FILE   write pipeline metrics on exit; *.json gets a JSON\n"
      "                       document, anything else Prometheus text exposition\n"
      "  --trace-out FILE     write the span trace as JSON: {\"spans\": [...]} with\n"
      "                       ns start/end times and parent span ids\n"
      "  --healthz-out FILE   write the component health report (healthz JSON)\n");
}

[[nodiscard]] core::TimeZoneProfiles reference_zones() {
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

[[nodiscard]] core::ActivityTrace load_trace(const Args& args) {
  const std::string input = args.get("input");
  if (input.empty()) throw std::invalid_argument("--input FILE is required");
  if (args.has("dump")) {
    const forum::ScrapeDump dump = forum::dump_from_csv_file(input);
    std::fprintf(stderr, "loaded dump: %zu records (%zu malformed) from %s\n",
                 dump.records.size(), dump.malformed_posts, input.c_str());
    const auto offset = args.get_int("offset", 0);
    const auto posts = offset != 0 || !dump.records.empty()
                           ? forum::to_utc_posts(dump, offset)
                           : std::vector<forum::TimedPost>{};
    core::ActivityTrace trace;
    for (const auto& post : posts) trace.add(post.author, post.utc_time);
    return trace;
  }
  const core::IngestResult result = core::trace_from_csv_file(input);
  std::fprintf(stderr, "loaded %zu posts (%zu rejected rows) from %s\n", result.rows_ok,
               result.rows_rejected, input.c_str());
  return result.trace;
}

int run_analyze(const Args& args) {
  const core::ActivityTrace trace = load_trace(args);
  std::fprintf(stderr, "building reference profiles from synthetic ground truth...\n");
  const core::TimeZoneProfiles zones = reference_zones();
  const core::ProfileSet profiles = core::build_profiles(trace, {});
  std::fprintf(stderr, "active users (>=30 posts): %zu (below threshold: %zu)\n\n",
               profiles.users.size(), profiles.filtered_inactive);
  if (profiles.users.empty()) {
    std::printf("nothing to analyze: no user reaches the activity threshold\n");
    return 1;
  }

  core::GeolocationOptions options;
  options.apply_flat_filter = !args.has("no-flat-filter");

  if (args.has("bootstrap")) {
    core::BootstrapOptions bootstrap;
    bootstrap.resamples = static_cast<int>(args.get_int("bootstrap", 200));
    const core::BootstrapResult result =
        core::bootstrap_geolocation(profiles.users, zones, options, bootstrap);
    if (args.has("json")) {
      std::printf("%s\n", core::to_json(result).dump(2).c_str());
      return 0;
    }
    std::printf("%s\n", core::placement_chart("Crowd placement", result.point).c_str());
    std::printf("%s", core::describe_geolocation("Geolocation", result.point).c_str());
    std::printf("\n%s", core::describe_bootstrap("Bootstrap", result).c_str());
  } else {
    const core::GeolocationResult result =
        core::geolocate_crowd(profiles.users, zones, options);
    if (args.has("json")) {
      std::printf("%s\n", core::to_json(result).dump(2).c_str());
      return 0;
    }
    std::printf("%s\n", core::placement_chart("Crowd placement", result).c_str());
    std::printf("%s", core::describe_geolocation("Geolocation", result).c_str());
  }
  return 0;
}

int run_hemisphere(const Args& args) {
  const core::ActivityTrace trace = load_trace(args);
  core::HemisphereOptions options;
  options.year = static_cast<std::int32_t>(args.get_int("year", 2016));
  const auto top = static_cast<std::size_t>(args.get_int("top", 5));
  const auto ranked = core::classify_top_users(trace, top, options);
  std::printf("%s", core::describe_hemispheres(
                        "Hemisphere verdicts (" + std::to_string(top) + " most active users)",
                        ranked)
                        .c_str());
  return 0;
}

int run_weekly(const Args& args) {
  const core::ActivityTrace trace = load_trace(args);
  const core::TimeZoneProfiles zones = reference_zones();
  const core::ProfileSet profiles = core::build_profiles(trace, {});
  if (profiles.users.empty()) {
    std::printf("no user reaches the activity threshold\n");
    return 1;
  }
  const core::PlacementResult placement = core::place_crowd(profiles.users, zones);
  const core::RestPatternBreakdown breakdown =
      core::rest_pattern_breakdown(trace, placement);
  std::printf("rest-day patterns of the placed crowd:\n");
  std::printf("  saturday-sunday : %zu\n", breakdown.saturday_sunday);
  std::printf("  friday-saturday : %zu\n", breakdown.friday_saturday);
  std::printf("  thursday-friday : %zu\n", breakdown.thursday_friday);
  std::printf("  other           : %zu\n", breakdown.other);
  std::printf("  undetected      : %zu\n", breakdown.undetected);
  return 0;
}

int run_dossier(const Args& args) {
  const core::ActivityTrace trace = load_trace(args);
  const core::TimeZoneProfiles zones = reference_zones();
  if (args.has("author")) {
    const std::uint64_t user = core::user_id_of(args.get("author"));
    const auto& events = trace.events_of(user);
    if (events.empty()) {
      std::printf("author '%s' has no posts in this trace\n", args.get("author").c_str());
      return 1;
    }
    const core::UserDossier dossier = core::build_dossier(user, events, zones);
    if (args.has("json")) {
      std::printf("%s\n", core::to_json(dossier).dump(2).c_str());
    } else {
      std::printf("%s", core::describe_dossier(dossier).c_str());
    }
    return 0;
  }
  const auto top = static_cast<std::size_t>(args.get_int("top", 3));
  const auto dossiers = core::build_top_dossiers(trace, zones, top);
  if (args.has("json")) {
    util::JsonValue array = util::JsonValue::array();
    for (const auto& dossier : dossiers) array.push(core::to_json(dossier));
    std::printf("%s\n", array.dump(2).c_str());
    return 0;
  }
  for (const auto& dossier : dossiers) {
    std::printf("%s\n", core::describe_dossier(dossier).c_str());
  }
  return 0;
}

int run_compare(const Args& args) {
  const std::string before_path = args.get("before");
  const std::string after_path = args.get("after");
  if (before_path.empty() || after_path.empty()) {
    throw std::invalid_argument("compare needs --before FILE and --after FILE");
  }
  const core::TimeZoneProfiles zones = reference_zones();
  const auto analyze_one = [&zones](const std::string& path) {
    const core::IngestResult result = core::trace_from_csv_file(path);
    const core::ProfileSet profiles = core::build_profiles(result.trace, {});
    return core::geolocate_crowd(profiles.users, zones);
  };
  const core::GeolocationResult before = analyze_one(before_path);
  const core::GeolocationResult after = analyze_one(after_path);
  std::printf("%s\n", core::describe_geolocation("BEFORE (" + before_path + ")", before).c_str());
  std::printf("%s\n", core::describe_geolocation("AFTER  (" + after_path + ")", after).c_str());

  std::printf("component drift (matched by nearest center):\n");
  std::vector<bool> matched(after.components.size(), false);
  for (const auto& old_component : before.components) {
    double best = 1e9;
    std::size_t pick = after.components.size();
    for (std::size_t i = 0; i < after.components.size(); ++i) {
      if (matched[i]) continue;
      const double d = std::abs(after.components[i].mean_zone - old_component.mean_zone);
      if (d < best) {
        best = d;
        pick = i;
      }
    }
    if (pick < after.components.size() && best <= 3.0) {
      matched[pick] = true;
      const auto& new_component = after.components[pick];
      std::printf("  %s: weight %+.1f%%, center %+.2fh\n",
                  core::zone_label(old_component.nearest_zone).c_str(),
                  (new_component.weight - old_component.weight) * 100.0,
                  new_component.mean_zone - old_component.mean_zone);
    } else {
      std::printf("  %s: DISAPPEARED (weight was %.1f%%)\n",
                  core::zone_label(old_component.nearest_zone).c_str(),
                  old_component.weight * 100.0);
    }
  }
  for (std::size_t i = 0; i < after.components.size(); ++i) {
    if (!matched[i]) {
      std::printf("  %s: NEW component (weight %.1f%%)\n",
                  core::zone_label(after.components[i].nearest_zone).c_str(),
                  after.components[i].weight * 100.0);
    }
  }
  return 0;
}

int run_demo() {
  std::printf("generating a Dream-Market-like crowd and analyzing it...\n\n");
  synth::DatasetOptions options;
  options.seed = 4;
  const synth::Dataset crowd =
      synth::make_forum_crowd(synth::paper_forum("Dream Market"), options);
  core::ActivityTrace generated;
  for (const auto& event : crowd.events) generated.add(event.user, event.time);
  // Round-trip through the CSV codec: the demo then exercises (and traces)
  // the same ingest path an --input run takes.
  const core::ActivityTrace trace = core::trace_from_csv(core::trace_to_csv(generated)).trace;
  const core::TimeZoneProfiles zones = reference_zones();
  const core::ProfileSet profiles = core::build_profiles(trace, {});
  const core::GeolocationResult result = core::geolocate_crowd(profiles.users, zones);
  std::printf("%s\n", core::placement_chart("Demo crowd placement", result).c_str());
  std::printf("%s", core::describe_geolocation("Demo geolocation", result).c_str());
  return 0;
}

void write_file_or_die(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error("cannot open " + path);
  out << content;
  if (!out) throw std::runtime_error("write failed for " + path);
}

/// Writes --metrics-out / --trace-out / --healthz-out files after the
/// command ran.  Metrics: JSON when the filename ends in .json,
/// Prometheus text exposition otherwise.  Trace: TraceBuffer::to_json
/// ({"spans": [...]}).  Healthz: the obs::Health machine-readable report.
void write_obs_outputs(const Args& args) {
  const std::string metrics_path = args.get("metrics-out");
  if (!metrics_path.empty()) {
    const bool json = util::ends_with(metrics_path, ".json");
    const auto& registry = obs::MetricsRegistry::global();
    write_file_or_die(metrics_path,
                      json ? registry.to_json().dump(2) + "\n" : registry.prometheus());
    std::fprintf(stderr, "wrote metrics (%s) to %s\n", json ? "json" : "prometheus",
                 metrics_path.c_str());
  }
  const std::string trace_path = args.get("trace-out");
  if (!trace_path.empty()) {
    write_file_or_die(trace_path, obs::TraceBuffer::global().to_json() + "\n");
    std::fprintf(stderr, "wrote span trace to %s\n", trace_path.c_str());
  }
  const std::string healthz_path = args.get("healthz-out");
  if (!healthz_path.empty()) {
    write_file_or_die(healthz_path, obs::Health::global().to_json().dump(2) + "\n");
    std::fprintf(stderr, "wrote healthz report to %s\n", healthz_path.c_str());
  }
}

int run_command(const Args& args) {
  if (args.command == "analyze") return run_analyze(args);
  if (args.command == "hemisphere") return run_hemisphere(args);
  if (args.command == "weekly") return run_weekly(args);
  if (args.command == "dossier") return run_dossier(args);
  if (args.command == "compare") return run_compare(args);
  if (args.command == "demo") return run_demo();
  print_usage();
  return args.command.empty() || args.command == "help" ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const int status = run_command(args);
    write_obs_outputs(args);
    return status;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
