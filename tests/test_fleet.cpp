// forum::Fleet — scheduler, fairness, ladder, and converged-checkpoint
// semantics, plus the manifest/convergence layer it reports through.
//
// The chaos harness (test_chaos.cpp, FleetChaos suite) proves fleet-wide
// crash equivalence; this suite pins the unit-level contracts: staggered
// schedule slots, deterministic fair shares, forum quarantine/park
// transitions, the per-forum health components, blast-radius containment
// of a corrupt checkpoint sub-entry, and the content-hash rules of
// ScrapeManifest/converge().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "forum/engine.hpp"
#include "forum/error.hpp"
#include "forum/fleet.hpp"
#include "forum/io.hpp"
#include "forum/manifest.hpp"
#include "obs/health.hpp"
#include "synth/dataset.hpp"
#include "synth/region_presets.hpp"
#include "timezone/civil.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace tzgeo::forum {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kInterval = 3600;
constexpr std::int64_t kDuration = 20 * kInterval;
constexpr std::size_t kRounds = 21;  // baseline + 20 intervals
constexpr std::size_t kForums = 3;

[[nodiscard]] tz::UtcSeconds fleet_start() {
  return tz::to_utc_seconds(tz::CivilDateTime{tz::CivilDate{2016, 3, 2}, 0, 0, 0});
}

[[nodiscard]] synth::Dataset small_crowd(std::size_t index) {
  synth::DatasetOptions options;
  options.seed = 7000 + index;
  options.inactive_fraction = 0.0;
  options.active_volume_floor = 8000.0;  // yearly rate; keeps short campaigns busy
  options.trace.start = tz::CivilDate{2016, 3, 1};
  options.trace.end = tz::CivilDate{2016, 3, 12};
  const synth::RegionSpec spec{"Unit" + std::to_string(index), "Europe/Moscow", 4};
  return synth::make_region_dataset(spec, 4, options);
}

/// Three small forums behind one consensus; the server side of every
/// test.  Handlers can be wrapped per test to script misbehavior.
struct Env {
  tor::Consensus consensus;
  std::vector<std::unique_ptr<ForumEngine>> engines;
  /// Per-forum wrapper around the engine handler; identity by default.
  std::vector<std::function<tor::Response(const tor::Request&, std::int64_t)>> handlers;

  Env()
      : consensus([] {
          util::Rng rng{600};
          return tor::Consensus::synthetic(80, rng);
        }()) {
    for (std::size_t i = 0; i < kForums; ++i) {
      ForumConfig config;
      config.name = "Unit Forum " + std::to_string(i);
      config.policy = TimestampPolicy::kHidden;
      engines.push_back(std::make_unique<ForumEngine>(config, small_crowd(i)));
      ForumEngine* const engine = engines.back().get();
      handlers.push_back([engine](const tor::Request& request, std::int64_t now) {
        return engine->handle(request, now);
      });
    }
  }

  [[nodiscard]] std::vector<FleetForumSpec> specs() {
    std::vector<FleetForumSpec> out;
    for (std::size_t i = 0; i < kForums; ++i) {
      FleetForumSpec spec;
      spec.name = "f" + std::to_string(i);
      auto* const handler = &handlers[i];
      spec.handler = [handler](const tor::Request& request, std::int64_t now) {
        return (*handler)(request, now);
      };
      spec.service_key = 10 + i;
      out.push_back(std::move(spec));
    }
    return out;
  }
};

[[nodiscard]] FleetOptions base_options(const std::string& checkpoint_path = "") {
  FleetOptions options;
  options.start_time_seconds = fleet_start();
  options.poll_interval_seconds = kInterval;
  options.duration_seconds = kDuration;
  options.seed = 77;
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

[[nodiscard]] std::set<std::uint64_t> post_ids(const ScrapeDump& dump) {
  std::set<std::uint64_t> ids;
  for (const auto& record : dump.records) ids.insert(record.post_id);
  return ids;
}

[[nodiscard]] ScrapeRecord make_record(std::uint64_t post, std::uint64_t thread,
                                       const std::string& author, std::int64_t observed) {
  ScrapeRecord record;
  record.post_id = post;
  record.thread_id = thread;
  record.author = author;
  record.observed_utc = observed;
  return record;
}

// ---------------------------------------------------------------------------
// Manifest layer.

TEST(ManifestHash, CoversDurableFieldsOnly) {
  const ScrapeRecord a = make_record(1, 2, "alice", 1000);
  ScrapeRecord later = a;
  later.observed_utc = 9999;  // observer-local stamp: must not change content
  EXPECT_EQ(record_content_hash(a), record_content_hash(later));

  ScrapeRecord other_author = a;
  other_author.author = "bob";
  EXPECT_NE(record_content_hash(a), record_content_hash(other_author));

  ScrapeRecord other_thread = a;
  other_thread.thread_id = 3;
  EXPECT_NE(record_content_hash(a), record_content_hash(other_thread));

  ScrapeRecord with_time = a;
  with_time.display_time = tz::CivilDateTime{tz::CivilDate{2016, 3, 2}, 12, 0, 0};
  EXPECT_NE(record_content_hash(a), record_content_hash(with_time));
}

TEST(ManifestBuild, SortsPartsAndResolvesDuplicatesToSmallerHash) {
  ScrapeDump dump;
  dump.onion = "x.onion";
  dump.forum_name = "X";
  dump.records.push_back(make_record(30, 1, "c", 10));
  dump.records.push_back(make_record(10, 1, "a", 10));
  dump.records.push_back(make_record(20, 1, "b", 10));
  // A duplicate post id with conflicting content (a garbled page that
  // still parsed): the manifest must pick deterministically.
  dump.records.push_back(make_record(20, 1, "b-garbled", 11));

  const ScrapeManifest manifest = build_manifest(dump);
  ASSERT_EQ(manifest.parts.size(), 3u);
  EXPECT_EQ(manifest.parts[0].post_id, 10u);
  EXPECT_EQ(manifest.parts[1].post_id, 20u);
  EXPECT_EQ(manifest.parts[2].post_id, 30u);
  const std::uint64_t kept = manifest.parts[1].content_hash;
  EXPECT_EQ(kept, std::min(record_content_hash(make_record(20, 1, "b", 10)),
                           record_content_hash(make_record(20, 1, "b-garbled", 11))));
  EXPECT_NE(manifest.combined_hash, 0u);

  // Same content, different record order: identical manifest.
  ScrapeDump shuffled = dump;
  std::swap(shuffled.records[0], shuffled.records[2]);
  EXPECT_TRUE(build_manifest(shuffled) == manifest);
}

TEST(Converge, UnionsKeepsEarlierStampsAndSumsCounters) {
  ScrapeDump a;
  a.onion = "x.onion";
  a.forum_name = "X";
  a.pages_fetched = 10;
  a.polls = 5;
  a.records.push_back(make_record(1, 1, "alice", 100));
  a.records.push_back(make_record(2, 1, "bob", 200));  // only A saw post 2

  ScrapeDump b;
  b.onion = "x.onion";
  b.forum_name = "X";
  b.pages_fetched = 7;
  b.polls = 5;
  b.records.push_back(make_record(1, 1, "alice", 50));  // same content, earlier stamp
  b.records.push_back(make_record(3, 2, "carol", 300));  // only B saw post 3

  const ScrapeDump merged = converge(a, b);
  ASSERT_EQ(merged.records.size(), 3u);
  EXPECT_EQ(merged.records[0].post_id, 1u);
  EXPECT_EQ(merged.records[0].observed_utc, 50) << "earlier stamp must win";
  EXPECT_EQ(merged.records[1].post_id, 2u);
  EXPECT_EQ(merged.records[2].post_id, 3u);
  EXPECT_EQ(merged.pages_fetched, 17u) << "both crawlers really did that work";
  EXPECT_EQ(merged.polls, 10u);

  // Symmetric: converge(a, b) and converge(b, a) agree on records.
  const ScrapeDump reversed = converge(b, a);
  EXPECT_TRUE(build_manifest(reversed) == build_manifest(merged));

  ScrapeDump other;
  other.onion = "y.onion";
  EXPECT_THROW((void)converge(a, other), std::invalid_argument);
}

TEST(Converge, ContentConflictResolvesToSmallerHashOnBothSides) {
  ScrapeDump a;
  a.onion = "x.onion";
  a.records.push_back(make_record(5, 1, "eve", 100));
  ScrapeDump b;
  b.onion = "x.onion";
  b.records.push_back(make_record(5, 1, "eve-garbled", 90));

  const ScrapeDump ab = converge(a, b);
  const ScrapeDump ba = converge(b, a);
  ASSERT_EQ(ab.records.size(), 1u);
  ASSERT_EQ(ba.records.size(), 1u);
  EXPECT_EQ(record_content_hash(ab.records[0]), record_content_hash(ba.records[0]))
      << "conflict resolution must not depend on argument order";
}

// ---------------------------------------------------------------------------
// Scheduler math.

TEST(FairShare, DividesEvenlyWithRemainderToLowIndices) {
  EXPECT_EQ(fair_share(10, 3, 0), 4u);
  EXPECT_EQ(fair_share(10, 3, 1), 3u);
  EXPECT_EQ(fair_share(10, 3, 2), 3u);
  EXPECT_EQ(fair_share(10, 3, 3), 0u) << "index past the claimant count";
  EXPECT_EQ(fair_share(10, 0, 0), 0u);
  EXPECT_EQ(fair_share(2, 5, 0), 1u);
  EXPECT_EQ(fair_share(2, 5, 4), 0u) << "more claimants than budget: zero shares exist";
  for (std::size_t total : {0u, 1u, 7u, 100u, 101u}) {
    for (std::size_t claimants : {1u, 2u, 5u, 13u}) {
      std::size_t sum = 0;
      std::size_t low = SIZE_MAX;
      std::size_t high = 0;
      for (std::size_t i = 0; i < claimants; ++i) {
        const std::size_t share = fair_share(total, claimants, i);
        sum += share;
        low = std::min(low, share);
        high = std::max(high, share);
      }
      EXPECT_EQ(sum, total) << "shares must spend the budget exactly";
      EXPECT_LE(high - low, 1u) << "fairness: shares differ by at most one";
    }
  }
}

TEST(ReprobeJitter, OneDeterministicSlotPerWindowWithSpreadPhases) {
  std::set<std::uint64_t> phases;
  for (std::uint64_t key = 0; key < 64; ++key) {
    const std::uint64_t phase = cooldown_phase(key, 8);
    EXPECT_LT(phase, 8u);
    EXPECT_EQ(phase, cooldown_phase(key, 8)) << "phase must be a pure function of the key";
    phases.insert(phase);
    std::size_t slots = 0;
    for (std::uint64_t poll = 16; poll < 24; ++poll) {
      if (is_reprobe_poll(poll, 8, key)) ++slots;
    }
    EXPECT_EQ(slots, 1u) << "exactly one re-probe slot per cooldown window";
  }
  EXPECT_GE(phases.size(), 4u) << "jitter collapsed: adjacent keys share a phase";
  EXPECT_FALSE(is_reprobe_poll(5, 0, 1)) << "cooldown 0 disables re-probes";
}

// ---------------------------------------------------------------------------
// Fleet campaigns.

TEST(Fleet, HealthyCampaignYieldsFullFleetVerdict) {
  Env env;
  Fleet fleet{env.consensus, env.specs(), base_options()};
  EXPECT_EQ(fleet.rounds_total(), kRounds);
  const FleetResult result = fleet.run();

  EXPECT_EQ(result.rounds, kRounds);
  EXPECT_TRUE(result.full_fleet());
  EXPECT_EQ(result.active, kForums);
  ASSERT_EQ(result.forums.size(), kForums);
  for (const auto& forum : result.forums) {
    EXPECT_EQ(forum.status, ForumStatus::kActive);
    EXPECT_EQ(forum.dump.polls, kRounds) << forum.name;
    EXPECT_EQ(forum.dump.polls_failed, 0u) << forum.name;
    EXPECT_GT(forum.dump.records.size(), 10u) << forum.name;
    EXPECT_TRUE(forum.manifest == build_manifest(forum.dump)) << forum.name;
    EXPECT_EQ(post_ids(forum.dump).size(), forum.dump.records.size())
        << "a post was recorded twice in " << forum.name;
  }
}

TEST(Fleet, StaggersForumSlotsAcrossTheInterval) {
  // Forum i's schedule is offset by interval * i / N, so the forums' first
  // recorded observations must spread across the hour instead of piling
  // on the same second.
  Env env;
  Fleet fleet{env.consensus, env.specs(), base_options()};
  const FleetResult result = fleet.run();

  std::vector<std::int64_t> first_observed;
  for (const auto& forum : result.forums) {
    ASSERT_FALSE(forum.dump.records.empty());
    std::int64_t min_observed = forum.dump.records.front().observed_utc;
    for (const auto& record : forum.dump.records) {
      min_observed = std::min(min_observed, record.observed_utc);
    }
    first_observed.push_back(min_observed);
  }
  std::sort(first_observed.begin(), first_observed.end());
  for (std::size_t i = 1; i < first_observed.size(); ++i) {
    EXPECT_GE(first_observed[i] - first_observed[i - 1], kInterval / 6)
        << "forums polled in lockstep; stagger is not applied";
  }
}

TEST(Fleet, DeadForumIsParkedNotFatal) {
  Env env;
  // Forum 1 is dead from the very first request; the fleet must complete
  // with a partial verdict, not abort the campaign.
  env.handlers[1] = [](const tor::Request&, std::int64_t) {
    return tor::Response{500, "gone forever"};
  };
  FleetOptions options = base_options();
  options.forum_quarantine_after = 3;
  options.forum_quarantine_cooldown_rounds = 4;
  options.forum_park_after = 2;
  Fleet fleet{env.consensus, env.specs(), options};
  const FleetResult result = fleet.run();

  EXPECT_FALSE(result.full_fleet());
  EXPECT_EQ(result.parked, 1u);
  EXPECT_EQ(result.forums[1].status, ForumStatus::kParked);
  EXPECT_FALSE(result.forums[1].park_reason.empty());
  EXPECT_GT(result.forums[1].parked_at_round, 0u);
  EXPECT_LT(result.forums[1].dump.polls, kRounds) << "parked forum kept polling";
  EXPECT_GT(result.forums[1].rounds_skipped, 0u);
  for (const std::size_t healthy : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_EQ(result.forums[healthy].status, ForumStatus::kActive);
    EXPECT_EQ(result.forums[healthy].dump.polls, kRounds);
    EXPECT_GT(result.forums[healthy].dump.records.size(), 10u);
  }
}

TEST(Fleet, HealthReportCoversEveryForumAndTheFleet) {
  if (obs::kDisabled) GTEST_SKIP() << "obs layer compiled out (TZGEO_OBS_DISABLED)";
  Env env;
  env.handlers[1] = [](const tor::Request&, std::int64_t) {
    return tor::Response{500, "gone forever"};
  };
  // Names no other test uses: a failed component stays latched in the
  // process-wide registry.  The three scripted forums lead an 80-forum
  // fleet, more than the 64-slot health table holds.
  std::vector<FleetForumSpec> specs = env.specs();
  for (auto& spec : specs) spec.name = "health-" + spec.name;
  constexpr std::size_t kLargeFleet = 80;
  for (std::size_t i = kForums; i < kLargeFleet; ++i) {
    FleetForumSpec spec;
    spec.name = "health-extra-" + std::to_string(i);
    auto* const handler = &env.handlers[i % 2 == 0 ? 0 : 2];  // healthy forums only
    spec.handler = [handler](const tor::Request& request, std::int64_t now) {
      return (*handler)(request, now);
    };
    spec.service_key = 10 + i;
    specs.push_back(std::move(spec));
  }
  FleetOptions options = base_options();
  options.forum_quarantine_after = 3;
  options.forum_quarantine_cooldown_rounds = 4;
  options.forum_park_after = 2;
  Fleet fleet{env.consensus, specs, options};
  const FleetResult result = fleet.run();
  ASSERT_EQ(result.forums[1].status, ForumStatus::kParked);

  const obs::Health::Report report = obs::Health::global().report();
  std::map<std::string, obs::Health::ComponentReport> components;
  for (const auto& component : report.components) components[component.name] = component;
  EXPECT_EQ(components.count("forum.fleet"), 1u);
  // The lazily registered shared components survive the full table.
  EXPECT_EQ(components.count("core.thread_pool"), 1u);
  EXPECT_EQ(components.count("tor.transport"), 1u);
  EXPECT_GT(report.refused, 0u);
  for (std::size_t i = 0; i < kForums; ++i) {
    const auto found = components.find("fleet." + specs[i].name);
    ASSERT_NE(found, components.end()) << specs[i].name;
    if (i == 1) {
      EXPECT_EQ(found->second.state, obs::HealthState::kFailed);
      EXPECT_EQ(found->second.reason, "parked: re-probes exhausted");
    } else {
      EXPECT_NE(found->second.state, obs::HealthState::kFailed) << specs[i].name;
      EXPECT_GT(found->second.beats, 0u) << specs[i].name;
    }
  }
}

TEST(Fleet, QuarantinedForumHealsAndIsReinstated) {
  // Reference: the same fleet with no outage.
  Env reference_env;
  Fleet reference_fleet{reference_env.consensus, reference_env.specs(), base_options()};
  const FleetResult reference = reference_fleet.run();

  Env env;
  const std::int64_t t0 = fleet_start();
  const auto inner = env.handlers[2];
  env.handlers[2] = [inner, t0](const tor::Request& request, std::int64_t now) {
    if (now >= t0 + 2 * kInterval && now < t0 + 8 * kInterval) {
      return tor::Response{500, "maintenance window"};
    }
    return inner(request, now);
  };
  FleetOptions options = base_options();
  options.forum_quarantine_after = 2;
  options.forum_quarantine_cooldown_rounds = 2;
  options.forum_park_after = 10;  // plenty of re-probes before parking
  Fleet fleet{env.consensus, env.specs(), options};
  const FleetResult result = fleet.run();

  EXPECT_EQ(result.forums[2].status, ForumStatus::kActive) << "forum was not reinstated";
  EXPECT_GT(result.forums[2].rounds_skipped, 0u) << "forum was never quarantined";
  EXPECT_GT(result.forums[2].dump.polls_failed, 0u);
  // Exactly-once collection across the outage: the healed forum still
  // ends with the full post set (late posts plus the missed backlog).
  EXPECT_EQ(post_ids(result.forums[2].dump), post_ids(reference.forums[2].dump));
}

TEST(Fleet, GenerousBudgetMatchesUnlimited) {
  // A budget that never binds must not change a single byte: the
  // allowance is enforcement, not scheduling.
  Env unlimited_env;
  Fleet unlimited{unlimited_env.consensus, unlimited_env.specs(), base_options()};
  const FleetResult baseline = unlimited.run();

  Env budgeted_env;
  FleetOptions options = base_options();
  options.request_budget_per_round = 100'000;
  Fleet budgeted{budgeted_env.consensus, budgeted_env.specs(), options};
  const FleetResult result = budgeted.run();

  ASSERT_EQ(result.forums.size(), baseline.forums.size());
  for (std::size_t i = 0; i < result.forums.size(); ++i) {
    EXPECT_EQ(dump_to_csv(result.forums[i].dump), dump_to_csv(baseline.forums[i].dump));
  }
}

TEST(Fleet, StarvationBudgetDegradesButCompletes) {
  // One fetch per round across three forums: the rotation hands the slot
  // around; no forum can finish a sweep, but the campaign must still
  // complete with a (bleak) verdict instead of throwing.
  Env env;
  FleetOptions options = base_options();
  options.request_budget_per_round = 1;
  Fleet fleet{env.consensus, env.specs(), options};
  const FleetResult result = fleet.run();
  EXPECT_EQ(result.rounds, kRounds);
  std::size_t total_polls = 0;
  for (const auto& forum : result.forums) total_polls += forum.dump.polls;
  EXPECT_LE(total_polls, kRounds) << "more sweeps ran than the budget could fund";
  EXPECT_GT(total_polls, 0u) << "rotation never handed anyone the slot";
}

TEST(Fleet, InvalidOptionsAreRejected) {
  Env env;
  {
    FleetOptions options = base_options();
    options.poll_interval_seconds = 0;
    EXPECT_THROW((Fleet{env.consensus, env.specs(), options}), std::invalid_argument);
  }
  EXPECT_THROW((Fleet{env.consensus, {}, base_options()}), std::invalid_argument);
  {
    auto specs = env.specs();
    specs[1].name = specs[0].name;
    EXPECT_THROW((Fleet{env.consensus, std::move(specs), base_options()}),
                 std::invalid_argument);
  }
  {
    auto specs = env.specs();
    specs[0].name = "__fleet__";  // reserved for the checkpoint global entry
    EXPECT_THROW((Fleet{env.consensus, std::move(specs), base_options()}),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Converged checkpoint: blast radius and campaign identity.

struct ManifestLayout {
  std::size_t blob_offset = 0;  ///< absolute offset of this entry's blob
  std::size_t blob_size = 0;
};

/// Parses the TZCM directory of a written fleet checkpoint and returns
/// each key's blob position — the test-side view needed to corrupt one
/// forum's bytes surgically.
[[nodiscard]] std::map<std::string, ManifestLayout> parse_layout(const std::string& blob) {
  const auto u32_at = [&](std::size_t at) {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) value |= static_cast<std::uint32_t>(
        static_cast<unsigned char>(blob[at + static_cast<std::size_t>(i)])) << (8 * i);
    return value;
  };
  const auto u64_at = [&](std::size_t at) {
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) value |= static_cast<std::uint64_t>(
        static_cast<unsigned char>(blob[at + static_cast<std::size_t>(i)])) << (8 * i);
    return value;
  };
  const std::uint32_t count = u32_at(8);
  std::size_t pos = 12;
  std::vector<std::pair<std::string, std::size_t>> sizes;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto key_len = static_cast<std::size_t>(u64_at(pos));
    pos += 8;
    std::string key = blob.substr(pos, key_len);
    pos += key_len;
    sizes.emplace_back(std::move(key), static_cast<std::size_t>(u64_at(pos)));
    pos += 8 + 4;  // payload_size + payload_crc
  }
  pos += 4;  // directory CRC
  std::map<std::string, ManifestLayout> layout;
  for (auto& [key, size] : sizes) {
    layout[key] = ManifestLayout{pos, size};
    pos += size;
  }
  return layout;
}

TEST(FleetCheckpoint, CorruptSubEntryParksOnlyThatForum) {
  // Reference: the uninterrupted campaign.
  Env reference_env;
  Fleet reference_fleet{reference_env.consensus, reference_env.specs(), base_options()};
  const FleetResult reference = reference_fleet.run();

  const std::string path = temp_checkpoint("fleet_corrupt_entry.ckpt");
  remove_checkpoint(path);
  {
    Env env;
    FleetOptions options = base_options(path);
    options.halt_after_rounds = 6;
    Fleet fleet{env.consensus, env.specs(), options};
    EXPECT_THROW((void)fleet.run(), CrawlError);
  }
  ASSERT_TRUE(fs::exists(path));

  // Flip one bit inside forum f1's blob.
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const auto layout = parse_layout(blob);
  ASSERT_EQ(layout.count("f1"), 1u);
  const ManifestLayout f1 = layout.at("f1");
  ASSERT_GT(f1.blob_size, 0u);
  const std::size_t target = f1.blob_offset + f1.blob_size / 2;
  blob[target] = static_cast<char>(blob[target] ^ 0x04);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  Env env;
  Fleet fleet{env.consensus, env.specs(), base_options(path)};
  const FleetResult result = fleet.run();

  EXPECT_EQ(result.parked, 1u);
  EXPECT_EQ(result.forums[1].status, ForumStatus::kParked);
  EXPECT_NE(result.forums[1].park_reason.find("sub-entry"), std::string::npos)
      << result.forums[1].park_reason;
  // The healthy forums must resume byte-identically — the whole point of
  // per-entry CRCs over one whole-file CRC.
  for (const std::size_t healthy : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_EQ(dump_to_csv(result.forums[healthy].dump),
              dump_to_csv(reference.forums[healthy].dump))
        << "forum f" << healthy << " took collateral damage";
    EXPECT_EQ(result.forums[healthy].status, ForumStatus::kActive);
  }
  EXPECT_FALSE(fs::exists(path));
}

TEST(FleetCheckpoint, DifferentCampaignIsRefusedWhole) {
  const std::string path = temp_checkpoint("fleet_wrong_campaign.ckpt");
  remove_checkpoint(path);
  {
    Env env;
    FleetOptions options = base_options(path);
    options.halt_after_rounds = 3;
    Fleet fleet{env.consensus, env.specs(), options};
    EXPECT_THROW((void)fleet.run(), CrawlError);
  }
  ASSERT_TRUE(fs::exists(path));

  {
    // Changed schedule: not the same campaign.
    Env env;
    FleetOptions options = base_options(path);
    options.duration_seconds = kDuration * 2;
    try {
      Fleet fleet{env.consensus, env.specs(), options};
      FAIL() << "checkpoint for a different schedule accepted";
    } catch (const util::CheckpointError& error) {
      EXPECT_EQ(error.code(), util::CheckpointErrorCode::kMalformed);
    }
  }
  {
    // Changed roster: not the same fleet.
    Env env;
    auto specs = env.specs();
    specs[1].name = "renamed";
    try {
      Fleet fleet{env.consensus, std::move(specs), base_options(path)};
      FAIL() << "checkpoint for a different roster accepted";
    } catch (const util::CheckpointError& error) {
      EXPECT_EQ(error.code(), util::CheckpointErrorCode::kMalformed);
    }
  }
  remove_checkpoint(path);
}

TEST(FleetCheckpoint, SnapshotTracksStatusesAcrossResume) {
  const std::string path = temp_checkpoint("fleet_snapshot.ckpt");
  remove_checkpoint(path);
  {
    Env env;
    FleetOptions options = base_options(path);
    options.halt_after_rounds = 4;
    Fleet fleet{env.consensus, env.specs(), options};
    EXPECT_THROW((void)fleet.run(), CrawlError);
  }
  Env env;
  Fleet fleet{env.consensus, env.specs(), base_options(path)};
  EXPECT_EQ(fleet.next_round(), 4u);
  const auto before = fleet.snapshot();
  ASSERT_EQ(before.size(), kForums);
  for (const auto& snap : before) {
    EXPECT_EQ(snap.status, ForumStatus::kActive);
    EXPECT_EQ(snap.polls, 4u) << snap.name << " lost polls across resume";
  }
  while (!fleet.done()) fleet.poll_round();
  const FleetResult result = fleet.finish();
  EXPECT_TRUE(result.full_fleet());
  remove_checkpoint(path);
}

}  // namespace
}  // namespace tzgeo::forum
