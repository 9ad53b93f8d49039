#include "inputs.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>

#include "forum/model.hpp"
#include "forum/render.hpp"
#include "synth/dataset.hpp"
#include "timezone/zone_db.hpp"
#include "util/rng.hpp"

namespace tzgeo::pipeline_bench {

namespace {

// Crowd sizes, as multiples of the paper's presets (Section V forums,
// Table I regions).  Chosen so each workload's operation stresses the
// layer it exists for (README.md, "Workloads") while one run of
// run.py's default length still times dozens of operations per board.
constexpr double kForumDumpScale = 8.0;      // The Majestic Garden x8
constexpr double kForumDumpInactive = 4.0;   // lurkers per active member
constexpr double kTwitterScale = 2.0;        // Table I x2
constexpr double kInvestigateScale = 2.0;    // The Majestic Garden x2 per board
constexpr double kLiveMonitorScale = 5.0;    // Dream Market x5 per board
constexpr std::size_t kInvestigateBoards = 64;
constexpr std::size_t kLiveMonitorBoards = 24;

constexpr double kJunkRowShare = 0.01;
constexpr double kBadTimeShare = 0.005;  // live pages: half garbled, half `notime`
constexpr std::size_t kPostsPerPage = 20;
constexpr std::size_t kPagesPerThread = 12;

[[nodiscard]] std::string handle_of(std::uint64_t user) { return "m" + std::to_string(user); }

[[nodiscard]] std::uint64_t board_seed(std::uint64_t seed, std::size_t board) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + board;
  return util::splitmix64(state);
}

[[nodiscard]] CrowdShape shape_of(const synth::Dataset& dataset,
                                  std::vector<std::int32_t> zones) {
  CrowdShape shape;
  shape.posts = dataset.events.size();
  std::map<std::uint64_t, std::size_t> posts;
  for (const auto& event : dataset.events) ++posts[event.user];
  shape.authors = posts.size();
  for (const auto& [user, count] : posts) shape.authors_below_30 += count < 30 ? 1 : 0;
  for (const auto& persona : dataset.users) {
    shape.flat_bots += persona.kind == synth::PersonaKind::kBot ? 1 : 0;
  }
  std::sort(zones.begin(), zones.end());
  zones.erase(std::unique(zones.begin(), zones.end()), zones.end());
  shape.zones = std::move(zones);
  return shape;
}

[[nodiscard]] std::vector<std::int32_t> forum_zones(const synth::ForumCrowdSpec& spec) {
  std::vector<std::int32_t> zones;
  for (const auto& component : spec.components) {
    zones.push_back(tz::zone(component.zone).standard_offset_hours());
  }
  return zones;
}

[[nodiscard]] synth::Dataset forum_crowd(const synth::ForumCrowdSpec& spec, std::uint64_t seed,
                                         double scale, double inactive_fraction) {
  synth::DatasetOptions options;
  options.seed = seed;
  options.scale = scale;
  options.inactive_fraction = inactive_fraction;
  return synth::make_forum_crowd(spec, options);
}

/// Table I at crowd scale with low per-user volume: many users, few posts
/// each, so per-user work (polish, placement) outweighs per-row work.
/// Flat bots post at twice a human's volume (the generator's default is
/// six times), so their rows do not dominate the dump.
[[nodiscard]] synth::Dataset twitter_crowd(std::uint64_t seed, double scale) {
  synth::DatasetOptions options;
  options.seed = seed;
  options.scale = scale;
  options.mix.volume_log_mu = 3.8;
  options.mix.volume_log_sigma = 0.4;
  options.mix.bot_fraction = 0.10;
  options.mix.bot_volume_multiplier = 2.0;
  options.active_volume_floor = 40.0;
  return synth::make_twitter_dataset(options);
}

/// Writes the dataset as CSV in time order: string authors, civil and
/// epoch timestamps mixed about half and half, and ~1 % junk rows of three
/// kinds (bad time text, empty author, out-of-range civil time).
[[nodiscard]] CsvInput to_csv(const synth::Dataset& dataset, CrowdShape crowd,
                              std::uint64_t seed) {
  util::Rng rng{seed ^ 0x6a756e6b726f7773ULL};
  CsvInput input;
  input.crowd = std::move(crowd);
  input.csv.reserve(dataset.events.size() * 30);
  input.csv += "author,utc_time\n";
  char line[96];
  for (const auto& event : dataset.events) {
    const std::string author = handle_of(event.user);
    if (rng.bernoulli(kJunkRowShare)) {
      switch (input.junk_rows++ % 3) {
        case 0:
          std::snprintf(line, sizeof line, "%s,not a time\n", author.c_str());
          break;
        case 1:
          std::snprintf(line, sizeof line, ",%lld\n", static_cast<long long>(event.time));
          break;
        default:
          std::snprintf(line, sizeof line, "%s,2016-13-45 99:99:99\n", author.c_str());
          break;
      }
      input.csv += line;
      ++input.rows;
    }
    if (rng.bernoulli(0.5)) {
      std::snprintf(line, sizeof line, "%s,%lld\n", author.c_str(),
                    static_cast<long long>(event.time));
    } else {
      std::snprintf(line, sizeof line, "%s,%s\n", author.c_str(),
                    tz::to_string(tz::from_utc_seconds(event.time)).c_str());
    }
    input.csv += line;
    ++input.rows;
  }
  return input;
}

}  // namespace

std::optional<Workload> workload_of(std::string_view name) {
  for (const Workload w : {Workload::kForumDump, Workload::kTwitterCrowd, Workload::kInvestigate,
                           Workload::kLiveMonitor}) {
    if (name == name_of(w)) return w;
  }
  return std::nullopt;
}

const char* name_of(Workload workload) {
  switch (workload) {
    case Workload::kForumDump:
      return "forum-dump";
    case Workload::kTwitterCrowd:
      return "twitter-crowd";
    case Workload::kInvestigate:
      return "investigate";
    case Workload::kLiveMonitor:
      return "live-monitor";
  }
  return "?";
}

std::size_t boards_of(Workload workload) {
  switch (workload) {
    case Workload::kInvestigate:
      return kInvestigateBoards;
    case Workload::kLiveMonitor:
      return kLiveMonitorBoards;
    default:
      return 1;
  }
}

CsvInput make_csv_input(Workload workload, std::uint64_t seed, std::size_t board, double scale) {
  const std::uint64_t crowd_seed = board_seed(seed, board);
  switch (workload) {
    case Workload::kForumDump: {
      const auto& spec = synth::paper_forum("The Majestic Garden");
      const synth::Dataset dataset =
          forum_crowd(spec, crowd_seed, kForumDumpScale * scale, kForumDumpInactive);
      return to_csv(dataset, shape_of(dataset, forum_zones(spec)), crowd_seed);
    }
    case Workload::kTwitterCrowd: {
      const synth::Dataset dataset = twitter_crowd(crowd_seed, kTwitterScale * scale);
      std::vector<std::int32_t> zones;
      for (const auto& region : synth::table1_regions()) {
        zones.push_back(tz::zone(region.zone).standard_offset_hours());
      }
      return to_csv(dataset, shape_of(dataset, std::move(zones)), crowd_seed);
    }
    case Workload::kInvestigate: {
      const auto& spec = synth::paper_forum("The Majestic Garden");
      const synth::Dataset dataset =
          forum_crowd(spec, crowd_seed, kInvestigateScale * scale, 0.25);
      return to_csv(dataset, shape_of(dataset, forum_zones(spec)), crowd_seed);
    }
    case Workload::kLiveMonitor:
      break;
  }
  return {};
}

PageInput make_page_input(std::uint64_t seed, std::size_t board, double scale) {
  const auto& spec = synth::paper_forum("Dream Market");
  const std::uint64_t crowd_seed = board_seed(seed, board);
  const synth::Dataset dataset = forum_crowd(spec, crowd_seed, kLiveMonitorScale * scale, 0.25);
  PageInput input;
  input.crowd = shape_of(dataset, forum_zones(spec));
  input.display_offset_seconds = static_cast<std::int64_t>(spec.server_offset_minutes) * 60;

  // The board rotates through the three absolute formats page by page, so
  // the parser's format detection runs on every poll.
  constexpr std::array<forum::TimestampFormat, 3> kFormats = {
      forum::TimestampFormat::kIso, forum::TimestampFormat::kEuropean,
      forum::TimestampFormat::kUsAmPm};
  util::Rng rng{crowd_seed ^ 0x7061676573ULL};
  const std::size_t posts = dataset.events.size();
  const std::size_t page_count = (posts + kPostsPerPage - 1) / kPostsPerPage;
  input.pages.reserve(page_count);
  std::vector<forum::RenderedPost> page_posts;
  for (std::size_t page = 0; page < page_count; ++page) {
    page_posts.clear();
    const std::size_t end = std::min(posts, (page + 1) * kPostsPerPage);
    for (std::size_t i = page * kPostsPerPage; i < end; ++i) {
      const auto& event = dataset.events[i];
      forum::RenderedPost post;
      post.id = i + 1;
      post.author = handle_of(event.user);
      post.body = "reply " + std::to_string(rng.uniform_int(1, 99999)) + " on the thread";
      if (rng.bernoulli(kBadTimeShare)) {
        if (rng.bernoulli(0.5)) {
          post.display_time = tz::CivilDateTime{{2016, 13, 45}, 99, 99, 99};
          ++input.garbled_posts;
        } else {
          ++input.untimed_posts;  // display_time stays empty: rendered `notime`
        }
      } else {
        post.display_time = tz::from_utc_seconds(event.time + input.display_offset_seconds);
      }
      page_posts.push_back(std::move(post));
    }
    forum::Thread thread;
    thread.id = page / kPagesPerThread + 1;
    thread.title = "thread " + std::to_string(thread.id);
    input.pages.push_back(forum::render_thread_page(
        spec.forum_name, thread, page_posts, page % kPagesPerThread + 1, kPagesPerThread,
        kFormats[page % kFormats.size()]));
    input.bytes += input.pages.back().size();
  }
  return input;
}

}  // namespace tzgeo::pipeline_bench
