// Monitoring a whole fleet of dark-web boards (Section VII at scale).
//
// The paper's monitor mode watches one forum; a real investigation
// watches many boards that churn, vanish, and rate-limit independently.
// forum::Fleet multiplexes every campaign over one thread pool and one
// request budget, quarantines boards that keep failing, parks the ones
// that never come back, and persists the whole fleet in one atomic
// manifest checkpoint.  This example walks the full ops story:
//
//   1. A staggered 8-board campaign, with one board dying permanently
//      mid-campaign (parked, not fatal) and one battered by circuit
//      drops (quarantined, then reinstated).
//   2. A mid-campaign crash: the process halts after a scripted round,
//      and a fresh Fleet resumes from the checkpoint and completes.
//   3. Redundant crawlers: a second, independently seeded fleet crawls
//      the same boards; converge() reconciles each board's two dumps
//      into one agreed post set (Gridcoin-scraper spirit).
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "forum/engine.hpp"
#include "forum/error.hpp"
#include "forum/fleet.hpp"
#include "forum/manifest.hpp"
#include "fault/plan.hpp"
#include "synth/dataset.hpp"
#include "synth/region_presets.hpp"
#include "timezone/civil.hpp"
#include "util/strings.hpp"

using namespace tzgeo;

namespace {

constexpr std::size_t kBoards = 8;
constexpr std::int64_t kInterval = 1800;
constexpr std::int64_t kDuration = 7 * 86400;

[[nodiscard]] synth::Dataset board_crowd(std::size_t index) {
  const char* zones[] = {"Europe/Moscow", "America/New_York", "Asia/Tokyo",
                         "Europe/Berlin"};
  synth::DatasetOptions options;
  options.seed = 4100 + index;
  options.inactive_fraction = 0.0;
  options.active_volume_floor = 3000.0;
  options.trace.start = tz::CivilDate{2016, 1, 9};
  options.trace.end = tz::CivilDate{2016, 1, 20};
  const synth::RegionSpec region{"Board" + std::to_string(index), zones[index % 4], 4};
  return synth::make_region_dataset(region, 4, options);
}

/// The hidden services: kBoards engines that outlive every crawler
/// process (a crash kills the crawler, not the forums).
struct Boards {
  std::vector<std::unique_ptr<forum::ForumEngine>> engines;
  std::int64_t death_of_board3 = 0;  ///< board 3 404s forever after this

  Boards() {
    for (std::size_t i = 0; i < kBoards; ++i) {
      forum::ForumConfig config;
      config.name = "Board " + std::to_string(i);
      config.policy = forum::TimestampPolicy::kHidden;
      engines.push_back(std::make_unique<forum::ForumEngine>(config, board_crowd(i)));
    }
  }

  [[nodiscard]] std::vector<forum::FleetForumSpec> specs(
      const fault::FaultPlan* drops_for_board5) const {
    std::vector<forum::FleetForumSpec> out;
    for (std::size_t i = 0; i < kBoards; ++i) {
      forum::FleetForumSpec spec;
      spec.name = "board" + std::to_string(i);
      forum::ForumEngine* const engine = engines[i].get();
      const std::int64_t death = i == 3 ? death_of_board3 : 0;
      spec.handler = [engine, death](const tor::Request& request, std::int64_t now) {
        if (death != 0 && now >= death) return tor::Response{404, "board seized"};
        return engine->handle(request, now);
      };
      spec.service_key = 700 + i;
      if (i == 5) spec.fault_plan = drops_for_board5;
      out.push_back(std::move(spec));
    }
    return out;
  }
};

void print_verdict(const forum::FleetResult& result) {
  std::printf("  %-8s %-12s %6s %7s %8s %8s  %s\n", "board", "status", "polls",
              "failed", "records", "skipped", "park reason");
  for (const auto& forum : result.forums) {
    std::printf("  %-8s %-12s %6zu %7zu %8zu %8zu  %s\n", forum.name.c_str(),
                forum::to_string(forum.status), forum.dump.polls, forum.dump.polls_failed,
                forum.dump.records.size(), forum.rounds_skipped,
                forum.park_reason.empty() ? "-" : forum.park_reason.c_str());
  }
  std::printf("  => %zu rounds, %zu active / %zu quarantined / %zu parked%s\n",
              result.rounds, result.active, result.quarantined, result.parked,
              result.full_fleet() ? " (full fleet)" : "");
}

[[nodiscard]] forum::FleetOptions campaign_options(std::int64_t t0, std::uint64_t seed,
                                                   const std::string& checkpoint) {
  forum::FleetOptions options;
  options.start_time_seconds = t0;
  options.poll_interval_seconds = kInterval;
  options.duration_seconds = kDuration;
  options.seed = seed;
  options.checkpoint_path = checkpoint;
  options.checkpoint_every_rounds = 8;
  options.forum_quarantine_after = 3;
  options.forum_quarantine_cooldown_rounds = 8;
  options.forum_park_after = 3;
  return options;
}

}  // namespace

int main() {
  const tz::UtcSeconds t0 = tz::to_utc_seconds({tz::CivilDate{2016, 1, 10}, 0, 0, 0});
  Boards boards;
  boards.death_of_board3 = t0 + 3 * 86400;  // seized on day 3

  fault::FaultPlan drops;
  drops.seed = 901;
  drops.circuit_drops(t0 + 86400, t0 + 2 * 86400, 0.85);  // board 5's bad day

  // --- 1+2: the campaign, with a crash in the middle -----------------------
  const std::string checkpoint = "fleet_monitor.ckpt";
  std::filesystem::remove(checkpoint);  // no stale campaign

  std::printf("campaign: %zu boards, %lld polls each, staggered over %llds\n", kBoards,
              static_cast<long long>(kDuration / kInterval + 1),
              static_cast<long long>(kInterval));
  {
    forum::FleetOptions options = campaign_options(t0, 99, checkpoint);
    options.halt_after_rounds = 150;  // scripted kill -9 mid-campaign
    forum::Fleet fleet{boards.specs(&drops), options};
    try {
      (void)fleet.run();
      std::printf("unexpected: campaign finished before the crash\n");
    } catch (const forum::CrawlError&) {
      std::printf("crashed after 150 rounds (checkpoint persisted; forums keep living)\n");
    }
  }
  forum::FleetResult verdict;
  {
    // A fresh process: new Fleet, same checkpoint — resumes mid-campaign.
    forum::Fleet fleet{boards.specs(&drops), campaign_options(t0, 99, checkpoint)};
    std::printf("resumed at round %zu/%zu\n", fleet.next_round(), fleet.rounds_total());
    verdict = fleet.run();
  }
  print_verdict(verdict);

  // --- 3: redundant crawlers converge --------------------------------------
  // A second, independently seeded fleet (different transport RNG, its own
  // latencies and strikes) crawls the same boards with no checkpoint.
  std::printf("\nredundant crawler pass (independent seed):\n");
  forum::Fleet redundant{boards.specs(&drops), campaign_options(t0, 1234, "")};
  const forum::FleetResult second = redundant.run();

  std::printf("  %-8s %9s %9s %9s  %s\n", "board", "crawl A", "crawl B", "agreed",
              "manifests");
  for (std::size_t i = 0; i < verdict.forums.size(); ++i) {
    const auto& a = verdict.forums[i];
    const auto& b = second.forums[i];
    const forum::ScrapeDump agreed = forum::converge(a.dump, b.dump);
    const bool converged = a.manifest == b.manifest;
    std::printf("  %-8s %9zu %9zu %9zu  %s\n", a.name.c_str(), a.dump.records.size(),
                b.dump.records.size(), agreed.records.size(),
                converged ? "converged" : "diverged (union taken)");
  }
  std::printf("\nthe agreed post sets feed the geolocation pipeline exactly like a\n"
              "single crawl (see examples/live_monitor for the verdict timeline).\n");
  return 0;
}
