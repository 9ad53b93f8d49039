// Chaos harness: crash-equivalence and fault-schedule sweeps.
//
// Two families of proofs about the monitor's robustness machinery:
//
//  1. Crash equivalence.  Kill the monitor after every k-th poll, resume
//     from its checkpoint in a fresh process (fresh transport, fresh
//     clock, fresh RNG — everything a real crash destroys), and require
//     the final ScrapeDump and geolocator state to be byte-identical to
//     an uninterrupted run.  This only holds because polls are pinned to
//     their schedule slots and all randomness is derived per poll epoch
//     (see monitor.hpp); these tests are the guarantee's enforcement.
//
//  2. Fault sweeps.  Randomized FaultPlans (seeded; override one seed
//     with TZGEO_CHAOS_SEED=n for CI sweeps) batter the first half of a
//     campaign with outages, storms, drops, and body corruption.  The
//     monitor must never leak an exception, never record a post twice,
//     keep its poll schedule, replay bit-identically, and — once the
//     faults clear — still geolocate the crowd.
//
// Registered under the `chaos` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "forum/engine.hpp"
#include "forum/error.hpp"
#include "forum/fleet.hpp"
#include "forum/io.hpp"
#include "forum/manifest.hpp"
#include "forum/monitor.hpp"
#include "synth/dataset.hpp"
#include "synth/region_presets.hpp"
#include "timezone/civil.hpp"
#include "util/checkpoint.hpp"

namespace tzgeo::forum {
namespace {

namespace fs = std::filesystem;

[[nodiscard]] tz::UtcSeconds at(std::int32_t y, std::int32_t m, std::int32_t d,
                                std::int32_t h = 0) {
  return tz::to_utc_seconds(tz::CivilDateTime{tz::CivilDate{y, m, d}, h, 0, 0});
}

/// Campaign origin: one day into the crowd's activity window, so the
/// baseline has a backlog and posts keep appearing live.
[[nodiscard]] tz::UtcSeconds campaign_start() { return at(2016, 3, 2); }

/// A dense Moscow crowd: ~12 users posting heavily across a 11-day window
/// that brackets the monitored campaign.
[[nodiscard]] synth::Dataset dense_crowd() {
  synth::DatasetOptions options;
  options.seed = 88;
  options.inactive_fraction = 0.0;
  options.active_volume_floor = 2000.0;  // yearly rate; ~40 posts/user/week
  options.trace.start = tz::CivilDate{2016, 3, 1};
  options.trace.end = tz::CivilDate{2016, 3, 12};
  const synth::RegionSpec spec{"Moscow", "Europe/Moscow", 12};
  return synth::make_region_dataset(spec, 12, options);
}

[[nodiscard]] ForumConfig chaos_forum_config() {
  ForumConfig config;
  config.name = "Chaos Forum";
  config.policy = TimestampPolicy::kHidden;
  config.server_offset_minutes = 0;
  return config;
}

/// One "process": everything a crash destroys and a restart rebuilds from
/// the same seeds.  The page handler is re-bindable so tests can wrap the
/// engine with scripted misbehavior (a dead thread, a dead forum).
struct Env {
  util::SimClock clock;
  ForumEngine engine;
  std::function<tor::Response(const tor::Request&, std::int64_t)> handler;
  std::unique_ptr<fault::FaultInjector> injector;  // must outlive transport
  tor::OnionTransport transport;
  std::string onion;

  explicit Env(const fault::FaultPlan* plan = nullptr)
      : clock(campaign_start()),
        engine(chaos_forum_config(), dense_crowd()),
        handler([this](const tor::Request& request, std::int64_t now) {
          return engine.handle(request, now);
        }),
        injector(plan != nullptr ? std::make_unique<fault::FaultInjector>(*plan) : nullptr),
        transport(clock, 99,
                  [this] {
                    tor::TransportOptions options;
                    options.fault_injector = injector.get();
                    return options;
                  }()) {
    onion = transport.host(1, [this](const tor::Request& request, std::int64_t now) {
      return handler(request, now);
    });
  }
};

constexpr std::int64_t kInterval = 3600;
constexpr std::int64_t kDuration = 20 * kInterval;
constexpr std::size_t kTotalPolls = 21;  // baseline + 20 intervals

[[nodiscard]] MonitorOptions chaos_options(const std::string& checkpoint_path) {
  MonitorOptions options;
  options.poll_interval_seconds = kInterval;
  options.duration_seconds = kDuration;
  options.checkpoint_path = checkpoint_path;
  return options;
}

[[nodiscard]] std::string temp_checkpoint(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

void remove_checkpoint(const std::string& path) {
  std::error_code ignored;
  fs::remove(path, ignored);
  fs::remove(path + ".tmp", ignored);
}

void expect_dumps_identical(const ScrapeDump& actual, const ScrapeDump& reference,
                            const std::string& context) {
  EXPECT_EQ(dump_to_csv(actual), dump_to_csv(reference)) << context;
  EXPECT_EQ(actual.pages_fetched, reference.pages_fetched) << context;
  EXPECT_EQ(actual.polls, reference.polls) << context;
  EXPECT_EQ(actual.polls_failed, reference.polls_failed) << context;
  EXPECT_EQ(actual.polls_partial, reference.polls_partial) << context;
  EXPECT_EQ(actual.threads_quarantined, reference.threads_quarantined) << context;
  EXPECT_EQ(actual.malformed_posts, reference.malformed_posts) << context;
}

[[nodiscard]] std::set<std::uint64_t> post_ids(const ScrapeDump& dump) {
  std::set<std::uint64_t> ids;
  for (const auto& record : dump.records) ids.insert(record.post_id);
  return ids;
}

TEST(ChaosKillResume, EveryKillPointResumesByteIdentical) {
  // The acceptance bar of the checkpoint subsystem: for EVERY kill point k
  // in the campaign, kill-after-k + resume == never-killed, byte for byte.
  Env reference_env;
  const ScrapeDump reference = monitor_forum(reference_env.transport, reference_env.onion,
                                             chaos_options(""));
  ASSERT_EQ(reference.polls, kTotalPolls);
  ASSERT_GT(reference.records.size(), 10u) << "campaign too quiet to prove anything";

  const std::string path = temp_checkpoint("chaos_kill_resume.ckpt");
  for (std::size_t kill_after = 1; kill_after <= kTotalPolls; ++kill_after) {
    remove_checkpoint(path);
    {
      Env victim;
      MonitorOptions options = chaos_options(path);
      options.halt_after_polls = kill_after;
      try {
        (void)monitor_forum(victim.transport, victim.onion, options);
        FAIL() << "halt_after_polls=" << kill_after << " did not fire";
      } catch (const CrawlError& error) {
        ASSERT_EQ(error.category(), CrawlErrorCategory::kHalted) << error.what();
      }
      ASSERT_TRUE(fs::exists(path));
    }
    Env survivor;  // fresh clock, transport, RNG — as after a real crash
    const ScrapeDump resumed =
        monitor_forum(survivor.transport, survivor.onion, chaos_options(path));
    expect_dumps_identical(resumed, reference, "kill point " + std::to_string(kill_after));
    EXPECT_FALSE(fs::exists(path)) << "completed campaign must remove its checkpoint";
  }
}

TEST(ChaosKillResume, SparseCadenceReplaysLostPolls) {
  // checkpoint_every_polls = 3: a kill between checkpoints loses up to two
  // polls of state.  The resumed run must REPLAY those polls and land on
  // the identical dump — the per-epoch RNG derivation is what makes the
  // replay exact.
  Env reference_env;
  const ScrapeDump reference = monitor_forum(reference_env.transport, reference_env.onion,
                                             chaos_options(""));
  const std::string path = temp_checkpoint("chaos_sparse_cadence.ckpt");
  for (const std::size_t kill_after : {std::size_t{4}, std::size_t{5}, std::size_t{9},
                                       std::size_t{20}}) {
    remove_checkpoint(path);
    {
      Env victim;
      MonitorOptions options = chaos_options(path);
      options.checkpoint_every_polls = 3;
      options.halt_after_polls = kill_after;
      EXPECT_THROW((void)monitor_forum(victim.transport, victim.onion, options), CrawlError);
    }
    Env survivor;
    MonitorOptions options = chaos_options(path);
    options.checkpoint_every_polls = 3;
    const ScrapeDump resumed = monitor_forum(survivor.transport, survivor.onion, options);
    expect_dumps_identical(resumed, reference,
                           "sparse cadence, kill point " + std::to_string(kill_after));
  }
  remove_checkpoint(path);
}

TEST(ChaosKillResume, DiesAfterEveryPollAndStillFinishes) {
  // Worst-case crash storm: the process dies after every single poll, so
  // the campaign takes kTotalPolls process lifetimes.  Progress must be
  // monotone and the result still byte-identical.
  Env reference_env;
  const ScrapeDump reference = monitor_forum(reference_env.transport, reference_env.onion,
                                             chaos_options(""));
  const std::string path = temp_checkpoint("chaos_crash_storm.ckpt");
  remove_checkpoint(path);

  ScrapeDump final_dump;
  bool completed = false;
  std::size_t lifetimes = 0;
  while (!completed) {
    ASSERT_LT(lifetimes, kTotalPolls + 5) << "crash storm made no progress";
    ++lifetimes;
    Env env;
    MonitorOptions options = chaos_options(path);
    options.halt_after_polls = 1;
    try {
      final_dump = monitor_forum(env.transport, env.onion, options);
      completed = true;
    } catch (const CrawlError& error) {
      ASSERT_EQ(error.category(), CrawlErrorCategory::kHalted);
    }
  }
  EXPECT_EQ(lifetimes, kTotalPolls + 1) << "one poll per lifetime, plus the final no-op run";
  expect_dumps_identical(final_dump, reference, "crash storm");
  remove_checkpoint(path);
}

TEST(ChaosKillResume, GeolocatorStateRidesInsideTheCheckpoint) {
  // Composite state: the incremental geolocator streams committed records
  // via on_commit and its payload rides inside the monitor's checkpoint
  // (checkpoint_extra/restore_extra), so monitor + geolocator commit
  // atomically.  After kill/resume the final *geolocation report* must
  // match the uninterrupted run bit for bit.
  const auto make_geo = [] {
    std::vector<double> counts(kProfileBins, 0.01);
    counts[9] = 0.2;
    counts[19] = 0.3;
    counts[20] = 0.4;
    counts[21] = 0.3;
    return core::IncrementalGeolocator{
        core::TimeZoneProfiles{core::HourlyProfile::from_counts(counts)}, {}, 10};
  };
  const auto wire = [](MonitorOptions& options, core::IncrementalGeolocator& geo) {
    options.on_commit = [&geo](const std::vector<ScrapeRecord>& records) {
      for (const auto& record : records) geo.observe(record.author, record.observed_utc);
    };
    options.checkpoint_extra = [&geo] { return geo.checkpoint_payload(); };
    options.restore_extra = [&geo](std::string_view payload) {
      geo.restore_checkpoint(payload);
    };
  };

  core::IncrementalGeolocator reference_geo = make_geo();
  {
    Env env;
    MonitorOptions options = chaos_options("");
    wire(options, reference_geo);
    (void)monitor_forum(env.transport, env.onion, options);
  }
  const std::string reference_payload = reference_geo.checkpoint_payload();
  ASSERT_GT(reference_geo.post_count(), 0u);

  const std::string path = temp_checkpoint("chaos_composite.ckpt");
  for (const std::size_t kill_after : {std::size_t{1}, std::size_t{7}, std::size_t{15}}) {
    remove_checkpoint(path);
    core::IncrementalGeolocator victim_geo = make_geo();
    {
      Env env;
      MonitorOptions options = chaos_options(path);
      options.halt_after_polls = kill_after;
      wire(options, victim_geo);
      EXPECT_THROW((void)monitor_forum(env.transport, env.onion, options), CrawlError);
    }
    core::IncrementalGeolocator resumed_geo = make_geo();
    Env env;
    MonitorOptions options = chaos_options(path);
    wire(options, resumed_geo);
    (void)monitor_forum(env.transport, env.onion, options);
    EXPECT_EQ(resumed_geo.checkpoint_payload(), reference_payload)
        << "kill point " << kill_after;
    EXPECT_EQ(resumed_geo.post_count(), reference_geo.post_count());
    EXPECT_EQ(resumed_geo.user_count(), reference_geo.user_count());
  }
  remove_checkpoint(path);
}

TEST(ChaosLadder, BrokenThreadIsQuarantinedNotFatal) {
  // One thread serves 500s for eight hours mid-campaign.  The ladder must
  // keep every other thread recording (partial sweeps, zero failed
  // sweeps), quarantine the bad thread after repeated strikes, re-probe it
  // on its jittered cooldown slot after it heals, and still collect its
  // backlog — every post exactly once.  The fault clears by poll 10 so
  // that whatever phase the jitter lands on, a post-heal re-probe slot
  // (one per 8-poll window) still falls inside the 21-poll campaign.
  Env reference_env;
  const ScrapeDump reference = monitor_forum(reference_env.transport, reference_env.onion,
                                             chaos_options(""));
  ASSERT_FALSE(reference.records.empty());
  const std::uint64_t broken_thread = reference.records.front().thread_id;

  Env env;
  const std::int64_t t0 = campaign_start();
  const std::string prefix = "/thread/" + std::to_string(broken_thread) + "?";
  const auto inner = env.handler;
  env.handler = [inner, prefix, t0](const tor::Request& request, std::int64_t now) {
    if (now >= t0 + 2 * kInterval && now < t0 + 10 * kInterval &&
        request.path.rfind(prefix, 0) == 0) {
      return tor::Response{500, "thread database is on fire"};
    }
    return inner(request, now);
  };

  const ScrapeDump dump = monitor_forum(env.transport, env.onion, chaos_options(""));
  EXPECT_EQ(dump.polls, kTotalPolls);
  EXPECT_EQ(dump.polls_failed, 0u) << "a single bad thread must not fail sweeps";
  EXPECT_GT(dump.polls_partial, 0u);
  EXPECT_GT(dump.threads_quarantined, 0u);
  // Exactly-once collection: same post set as the clean run, no dupes.
  EXPECT_EQ(post_ids(dump), post_ids(reference));
  EXPECT_EQ(post_ids(dump).size(), dump.records.size());
}

TEST(ChaosLadder, ErrorBudgetAbortsAndResumeFinishes) {
  // The whole forum goes dark for good at poll 3.  With an error budget of
  // 5 consecutive failed sweeps the campaign must abort with the typed
  // budget error — leaving its checkpoint behind — and a later resume
  // against a healed forum must pick up and finish the schedule.
  const std::string path = temp_checkpoint("chaos_budget.ckpt");
  remove_checkpoint(path);
  const std::int64_t t0 = campaign_start();
  {
    Env env;
    const auto inner = env.handler;
    env.handler = [inner, t0](const tor::Request& request, std::int64_t now) {
      if (now >= t0 + 3 * kInterval) return tor::Response{500, "gone"};
      return inner(request, now);
    };
    MonitorOptions options = chaos_options(path);
    options.max_consecutive_failed_polls = 5;
    try {
      (void)monitor_forum(env.transport, env.onion, options);
      FAIL() << "error budget never fired";
    } catch (const CrawlError& error) {
      EXPECT_EQ(error.category(), CrawlErrorCategory::kBudgetExhausted);
      EXPECT_EQ(error.onion(), env.onion);
    }
    EXPECT_TRUE(fs::exists(path)) << "aborted campaign must leave its checkpoint";
  }
  Env healed;
  const ScrapeDump resumed = monitor_forum(healed.transport, healed.onion, chaos_options(path));
  EXPECT_EQ(resumed.polls, kTotalPolls);
  EXPECT_GT(resumed.polls_failed, 0u) << "the dark stretch stays in the record";
  EXPECT_FALSE(fs::exists(path));
}

TEST(ChaosCheckpointAbuse, CorruptFileAndWrongCampaignAreRejected) {
  const std::string path = temp_checkpoint("chaos_abuse.ckpt");
  remove_checkpoint(path);
  Env env;
  MonitorOptions options = chaos_options(path);
  options.halt_after_polls = 2;
  EXPECT_THROW((void)monitor_forum(env.transport, env.onion, options), CrawlError);
  ASSERT_TRUE(fs::exists(path));

  // A resume against a different campaign (another onion) must refuse.
  const std::string other_onion =
      env.transport.host(2, [&env](const tor::Request& request, std::int64_t now) {
        return env.handler(request, now);
      });
  try {
    (void)monitor_forum(env.transport, other_onion, chaos_options(path));
    FAIL() << "checkpoint for another onion accepted";
  } catch (const util::CheckpointError& error) {
    EXPECT_EQ(error.code(), util::CheckpointErrorCode::kMalformed);
  }

  // A flipped byte in the middle must be caught by the CRC.
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x10);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  Env fresh;
  try {
    (void)monitor_forum(fresh.transport, fresh.onion, chaos_options(path));
    FAIL() << "corrupt checkpoint accepted";
  } catch (const util::CheckpointError& error) {
    EXPECT_EQ(error.code(), util::CheckpointErrorCode::kBadCrc);
  }
  remove_checkpoint(path);
}

/// Seeds for the fault sweep: three fixed (CI runs them always) plus an
/// optional override from TZGEO_CHAOS_SEED for seed-matrix CI jobs.
[[nodiscard]] std::vector<std::uint64_t> sweep_seeds() {
  std::vector<std::uint64_t> seeds{1, 2, 3};
  if (const char* env = std::getenv("TZGEO_CHAOS_SEED")) {
    seeds.push_back(static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10)));
  }
  return seeds;
}

[[nodiscard]] core::IncrementalGeolocator sweep_geolocator() {
  std::vector<double> counts(kProfileBins, 0.01);
  counts[9] = 0.2;
  counts[19] = 0.3;
  counts[20] = 0.4;
  counts[21] = 0.3;
  return core::IncrementalGeolocator{
      core::TimeZoneProfiles{core::HourlyProfile::from_counts(counts)}, {}, 10};
}

TEST(ChaosFaultSweep, RandomSchedulesNeverLeakAndStillGeolocate) {
  // A 4-day campaign whose first two days are battered by a randomized
  // fault schedule.  For every seed: no exception escapes the monitor, no
  // post is recorded twice, the poll schedule holds, the run replays
  // bit-identically, and once the faults clear the estimate lands where
  // fault-free monitoring lands — chaos must not change the conclusion.
  const std::int64_t t0 = campaign_start();
  const std::int64_t duration = 4 * 86400;
  MonitorOptions options;
  options.poll_interval_seconds = kInterval;
  options.duration_seconds = duration;

  // Fault-free baseline: what the campaign concludes with no chaos at all.
  core::IncrementalGeolocator clean_geo = sweep_geolocator();
  ScrapeDump clean_dump;
  {
    MonitorOptions wired = options;
    wired.on_commit = [&clean_geo](const std::vector<ScrapeRecord>& records) {
      for (const auto& record : records) clean_geo.observe(record.author, record.observed_utc);
    };
    Env env;
    clean_dump = monitor_forum(env.transport, env.onion, wired);
  }
  const auto clean = clean_geo.estimate();
  ASSERT_GT(clean.active_users, 2u);
  ASSERT_FALSE(clean.components.empty());

  for (const std::uint64_t seed : sweep_seeds()) {
    const fault::FaultPlan plan = fault::FaultPlan::random(seed, t0, t0 + 2 * 86400);
    SCOPED_TRACE("chaos seed " + std::to_string(seed) + "\n" + plan.describe());

    core::IncrementalGeolocator geo = sweep_geolocator();
    MonitorOptions wired = options;
    wired.on_commit = [&geo](const std::vector<ScrapeRecord>& records) {
      for (const auto& record : records) geo.observe(record.author, record.observed_utc);
    };

    ScrapeDump dump;
    try {
      Env env{&plan};
      dump = monitor_forum(env.transport, env.onion, wired);
    } catch (const std::exception& error) {
      FAIL() << "exception leaked out of the monitor: " << error.what();
    }
    EXPECT_EQ(dump.polls, 1u + static_cast<std::size_t>(duration / kInterval));
    EXPECT_EQ(post_ids(dump).size(), dump.records.size()) << "a post was recorded twice";
    EXPECT_GT(dump.records.size(), 50u) << "faults starved the whole campaign";

    // Determinism: the same plan must reproduce the same dump.
    {
      Env replay_env{&plan};
      const ScrapeDump replay = monitor_forum(replay_env.transport, replay_env.onion, options);
      EXPECT_EQ(dump_to_csv(replay), dump_to_csv(dump)) << "fault replay diverged";
    }

    // Convergence once faults clear: same conclusion as the clean run.
    // (A garbled page can permanently cost a few posts — that is honest
    // data loss — but the crowd's placement must not move.)  Compared on
    // the count-weighted mean zone of the whole distribution, which moves
    // by ~1/active_users per user that shifts one zone; the top mixture
    // component alone is too fragile a statistic for a 12-user crowd.
    const auto weighted_mean_zone = [](const std::vector<double>& counts) {
      double total = 0.0;
      double sum = 0.0;
      for (std::size_t bin = 0; bin < counts.size(); ++bin) {
        total += counts[bin];
        sum += counts[bin] * static_cast<double>(core::zone_of_bin(bin));
      }
      return sum / total;
    };
    // Tolerance: storm backoffs advance the simulated clock mid-sweep, so
    // observed stamps (the only stamps under kHidden) carry hours of extra
    // error on a 4-day campaign — a couple of the ~6 active users can
    // legitimately land one zone over.  Two zones of drift on the crowd
    // mean would mean the conclusion changed.
    const auto snapshot = geo.estimate();
    ASSERT_GT(snapshot.active_users, 2u);
    ASSERT_FALSE(snapshot.components.empty());
    EXPECT_NEAR(weighted_mean_zone(snapshot.counts), weighted_mean_zone(clean.counts), 2.0);
    EXPECT_GE(snapshot.active_users + 2, clean.active_users)
        << "faults knocked out most of the crowd";
    EXPECT_GE(dump.records.size() + 25, clean_dump.records.size())
        << "faults permanently lost a large share of posts";
  }
}

// ---------------------------------------------------------------------------
// Fleet chaos: the same crash-equivalence and fault-sweep guarantees, but
// for a 20-forum campaign multiplexed by forum::Fleet — one converged
// checkpoint frame, parallel sweeps, fleet-level quarantine ladder.

constexpr std::size_t kFleetForums = 20;
constexpr std::size_t kFleetRounds = 21;  // baseline + 20 intervals

[[nodiscard]] synth::Dataset fleet_crowd(std::size_t index) {
  synth::DatasetOptions options;
  options.seed = 3000 + index;
  options.inactive_fraction = 0.0;
  options.active_volume_floor = 1200.0;
  options.trace.start = tz::CivilDate{2016, 3, 1};
  options.trace.end = tz::CivilDate{2016, 3, 12};
  const char* zones[] = {"Europe/Moscow", "America/New_York", "Asia/Tokyo", "Europe/Berlin"};
  const synth::RegionSpec spec{"Fleet" + std::to_string(index), zones[index % 4], 5};
  return synth::make_region_dataset(spec, 5, options);
}

/// The server side of a fleet campaign: 20 independent forums.  Unlike
/// the process-side Env, this deliberately SURVIVES crashes — the hidden
/// services keep running while the crawler process dies and resumes, so
/// one FleetEnv serves every lifetime of a storm.
struct FleetEnv {
  std::vector<std::unique_ptr<ForumEngine>> engines;

  FleetEnv() {
    engines.reserve(kFleetForums);
    for (std::size_t i = 0; i < kFleetForums; ++i) {
      ForumConfig config = chaos_forum_config();
      config.name = "Fleet Forum " + std::to_string(i);
      engines.push_back(std::make_unique<ForumEngine>(config, fleet_crowd(i)));
    }
  }

  [[nodiscard]] std::vector<FleetForumSpec> specs(
      const std::vector<fault::FaultPlan>* plans = nullptr) const {
    std::vector<FleetForumSpec> out;
    out.reserve(kFleetForums);
    for (std::size_t i = 0; i < kFleetForums; ++i) {
      FleetForumSpec spec;
      spec.name = "fleet-" + std::to_string(i);
      ForumEngine* const engine = engines[i].get();
      spec.handler = [engine](const tor::Request& request, std::int64_t now) {
        return engine->handle(request, now);
      };
      spec.service_key = 100 + i;
      if (plans != nullptr) spec.fault_plan = &(*plans)[i];
      out.push_back(std::move(spec));
    }
    return out;
  }
};

[[nodiscard]] FleetOptions fleet_chaos_options(const std::string& checkpoint_path) {
  FleetOptions options;
  options.start_time_seconds = campaign_start();
  options.poll_interval_seconds = kInterval;
  options.duration_seconds = kDuration;
  options.seed = 4242;
  options.checkpoint_path = checkpoint_path;
  return options;
}

void expect_fleet_identical(const FleetResult& actual, const FleetResult& reference,
                            const std::string& context) {
  ASSERT_EQ(actual.forums.size(), reference.forums.size()) << context;
  for (std::size_t i = 0; i < actual.forums.size(); ++i) {
    const FleetForumOutcome& a = actual.forums[i];
    const FleetForumOutcome& r = reference.forums[i];
    const std::string where = context + ", forum " + a.name;
    EXPECT_EQ(a.status, r.status) << where;
    EXPECT_TRUE(a.manifest == r.manifest) << where;
    expect_dumps_identical(a.dump, r.dump, where);
    EXPECT_EQ(a.rounds_skipped, r.rounds_skipped) << where;
  }
  EXPECT_EQ(actual.active, reference.active) << context;
  EXPECT_EQ(actual.quarantined, reference.quarantined) << context;
  EXPECT_EQ(actual.parked, reference.parked) << context;
}

TEST(FleetChaos, CrashStormEveryRoundByteIdenticalAcrossSeeds) {
  // The tentpole proof: a 20-forum campaign, every forum under its own
  // randomized fault schedule, where the whole fleet process is killed
  // after EVERY round and resumed from the converged checkpoint.  For
  // each seed the surviving chain must produce byte-identical per-forum
  // dumps, manifests, and geolocator payloads vs an uninterrupted run —
  // including the fleet ladder's quarantine/park decisions.
  const std::int64_t t0 = campaign_start();
  for (const std::uint64_t seed : sweep_seeds()) {
    SCOPED_TRACE("fleet chaos seed " + std::to_string(seed));
    std::vector<fault::FaultPlan> plans;
    plans.reserve(kFleetForums);
    for (std::size_t i = 0; i < kFleetForums; ++i) {
      plans.push_back(fault::FaultPlan::random(seed ^ (0x9e3779b97f4a7c15ull * (i + 1)), t0,
                                               t0 + kDuration / 2));
    }
    FleetEnv env;

    // A fleet-wide geolocator streams every forum's commits; its payload
    // rides inside forum 0's checkpoint sub-entry, so crawler state and
    // analysis state commit atomically.
    const auto wire = [](FleetOptions& options, core::IncrementalGeolocator& geo) {
      options.on_commit = [&geo](std::size_t forum, const std::vector<ScrapeRecord>& records) {
        for (const auto& record : records) {
          geo.observe(std::to_string(forum) + "/" + record.author, record.observed_utc);
        }
      };
      options.checkpoint_extra = [&geo](std::size_t forum) {
        return forum == 0 ? geo.checkpoint_payload() : std::string{};
      };
      options.restore_extra = [&geo](std::size_t forum, std::string_view payload) {
        if (forum == 0 && !payload.empty()) geo.restore_checkpoint(payload);
      };
    };

    core::IncrementalGeolocator reference_geo = sweep_geolocator();
    FleetOptions reference_options = fleet_chaos_options("");
    wire(reference_options, reference_geo);
    Fleet reference_fleet{env.specs(&plans), reference_options};
    const FleetResult reference = reference_fleet.run();
    ASSERT_EQ(reference.rounds, kFleetRounds);
    std::size_t total_records = 0;
    for (const auto& forum : reference.forums) total_records += forum.dump.records.size();
    ASSERT_GT(total_records, 200u) << "fleet campaign too quiet to prove anything";

    const std::string path =
        temp_checkpoint("fleet_storm_" + std::to_string(seed) + ".ckpt");
    remove_checkpoint(path);
    FleetResult final_result;
    std::string final_geo_payload;
    bool completed = false;
    std::size_t lifetimes = 0;
    while (!completed) {
      ASSERT_LT(lifetimes, kFleetRounds + 5) << "fleet crash storm made no progress";
      ++lifetimes;
      core::IncrementalGeolocator geo = sweep_geolocator();
      FleetOptions options = fleet_chaos_options(path);
      options.halt_after_rounds = 1;
      wire(options, geo);
      Fleet fleet{env.specs(&plans), options};
      try {
        final_result = fleet.run();
        final_geo_payload = geo.checkpoint_payload();
        completed = true;
      } catch (const CrawlError& error) {
        ASSERT_EQ(error.category(), CrawlErrorCategory::kHalted) << error.what();
        ASSERT_TRUE(fs::exists(path));
      }
    }
    EXPECT_EQ(lifetimes, kFleetRounds) << "one round per lifetime";
    EXPECT_FALSE(fs::exists(path)) << "completed fleet must remove its checkpoint";
    expect_fleet_identical(final_result, reference, "crash storm seed " + std::to_string(seed));
    EXPECT_EQ(final_geo_payload, reference_geo.checkpoint_payload())
        << "geolocator state diverged across fleet kill/resume";
  }
}

TEST(FleetConvergence, RedundantCrawlersConvergeToFaultFreeManifest) {
  // Redundant crawling (Gridcoin scraper spirit): two independent
  // crawlers watch the same forum; each permanently loses a different
  // thread mid-campaign, so each individual manifest is short.  The
  // converged manifest must equal what a fault-free crawler collects —
  // every post survived on at least one side.
  Env reference_env;
  const ScrapeDump clean =
      monitor_forum(reference_env.transport, reference_env.onion, chaos_options(""));
  const ScrapeManifest clean_manifest = build_manifest(clean);
  const std::int64_t t0 = campaign_start();

  // Two distinct threads that still receive posts late in the campaign —
  // posts a crawler that lost the thread at hour 5 can never collect.
  std::vector<std::uint64_t> victims;
  for (const auto& record : clean.records) {
    if (record.observed_utc < t0 + 8 * kInterval) continue;
    if (std::find(victims.begin(), victims.end(), record.thread_id) == victims.end()) {
      victims.push_back(record.thread_id);
    }
    if (victims.size() == 2) break;
  }
  ASSERT_EQ(victims.size(), 2u) << "campaign too quiet to stage divergent losses";

  const auto crawl_with_dead_thread = [&](std::uint64_t thread_id) {
    Env env;
    const std::string prefix = "/thread/" + std::to_string(thread_id) + "?";
    const auto inner = env.handler;
    env.handler = [inner, prefix, t0](const tor::Request& request, std::int64_t now) {
      if (now >= t0 + 5 * kInterval && request.path.rfind(prefix, 0) == 0) {
        return tor::Response{500, "thread database lost"};
      }
      return inner(request, now);
    };
    return monitor_forum(env.transport, env.onion, chaos_options(""));
  };
  const ScrapeDump dump_a = crawl_with_dead_thread(victims[0]);
  const ScrapeDump dump_b = crawl_with_dead_thread(victims[1]);

  const ScrapeManifest manifest_a = build_manifest(dump_a);
  const ScrapeManifest manifest_b = build_manifest(dump_b);
  EXPECT_FALSE(manifest_a == clean_manifest) << "crawler A lost nothing; test proves nothing";
  EXPECT_FALSE(manifest_b == clean_manifest) << "crawler B lost nothing; test proves nothing";
  EXPECT_FALSE(manifest_a == manifest_b);

  const ScrapeDump converged = converge(dump_a, dump_b);
  EXPECT_TRUE(build_manifest(converged) == clean_manifest)
      << "converged manifest must equal the fault-free manifest";
  EXPECT_EQ(post_ids(converged), post_ids(clean));
  EXPECT_EQ(converged.records.size(), clean.records.size());
}

}  // namespace
}  // namespace tzgeo::forum
