// Integration of the scraping pipeline: engine -> tor transport -> crawler
// -> calibration / monitor.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "forum/calibration.hpp"
#include "forum/crawler.hpp"
#include "forum/engine.hpp"
#include "forum/error.hpp"
#include "forum/monitor.hpp"
#include "synth/dataset.hpp"

namespace tzgeo::forum {
namespace {

[[nodiscard]] tz::UtcSeconds at(std::int32_t y, std::int32_t m, std::int32_t d,
                                std::int32_t h = 0) {
  return tz::to_utc_seconds(tz::CivilDateTime{tz::CivilDate{y, m, d}, h, 0, 0});
}

/// A deterministic small crowd generated by the synth layer.
[[nodiscard]] synth::Dataset small_crowd(std::uint64_t seed = 77) {
  synth::DatasetOptions options;
  options.scale = 1.0;
  options.seed = seed;
  options.inactive_fraction = 0.0;
  synth::RegionSpec spec{"Moscow", "Europe/Moscow", 12};
  return synth::make_region_dataset(spec, 12, options);
}

struct Rig {
  util::SimClock clock;
  ForumEngine engine;
  tor::OnionTransport transport;
  std::string onion;
  /// When set, answers requests instead of the engine (misbehavior tests).
  tor::ServiceHandler handler_override;

  explicit Rig(ForumConfig config, synth::Dataset crowd = small_crowd(),
               tor::TransportOptions transport_options = {})
      : clock(at(2017, 2, 1)),  // after the crowd's 2016 activity
        engine(std::move(config), crowd),
        transport(clock, 99, transport_options) {
    onion = transport.host(util::hash64(engine.config().name),
                           [this](const tor::Request& request, std::int64_t now) {
                             if (handler_override) return handler_override(request, now);
                             return engine.handle(request, now);
                           });
  }
};

[[nodiscard]] ForumConfig config_with(TimestampPolicy policy, std::int32_t offset_minutes) {
  ForumConfig config;
  config.name = "Pipeline Forum";
  config.policy = policy;
  config.server_offset_minutes = offset_minutes;
  return config;
}

TEST(Crawler, DumpsEveryPost) {
  Rig rig{config_with(TimestampPolicy::kServerLocal, 180)};
  const ScrapeDump dump = crawl_forum(rig.transport, rig.onion);
  EXPECT_EQ(dump.records.size(), rig.engine.post_count());
  EXPECT_EQ(dump.malformed_posts, 0u);
  EXPECT_GT(dump.pages_fetched, 3u);
  EXPECT_EQ(dump.forum_name, "Pipeline Forum");
  EXPECT_EQ(dump.onion, rig.onion);
}

TEST(Crawler, RecordsCarryDisplayTimes) {
  Rig rig{config_with(TimestampPolicy::kServerLocal, 180)};
  const ScrapeDump dump = crawl_forum(rig.transport, rig.onion);
  for (const auto& record : dump.records) {
    ASSERT_TRUE(record.display_time.has_value());
    EXPECT_FALSE(record.author.empty());
    // Display time = true time + 3h offset.
    EXPECT_EQ(tz::to_utc_seconds(*record.display_time) - rig.engine.true_time_of(record.post_id),
              180 * 60);
  }
}

TEST(Crawler, SurvivesCircuitFailures) {
  tor::TransportOptions flaky;
  flaky.failure_probability = 0.3;
  flaky.max_retries = 30;
  Rig rig{config_with(TimestampPolicy::kServerLocal, 60), small_crowd(), flaky};
  const ScrapeDump dump = crawl_forum(rig.transport, rig.onion);
  EXPECT_EQ(dump.records.size(), rig.engine.post_count());
  EXPECT_GT(rig.transport.stats().failures, 0u);
}

TEST(CrawlErrorType, MessageCarriesCategoryAndLocation) {
  const CrawlError error{CrawlErrorCategory::kFetchFailed, "abcdefghijklmnop.onion",
                         "/index?page=1", "status 500"};
  const std::string message = error.what();
  EXPECT_NE(message.find("fetch-failed"), std::string::npos) << message;
  EXPECT_NE(message.find("abcdefghijklmnop.onion/index?page=1"), std::string::npos) << message;
  EXPECT_NE(message.find("status 500"), std::string::npos) << message;
  EXPECT_EQ(error.category(), CrawlErrorCategory::kFetchFailed);
  // Typed errors still satisfy code that catches the old stringly type.
  EXPECT_THROW(throw CrawlError(CrawlErrorCategory::kPageCap, "", "", "cap"),
               std::runtime_error);
}

TEST(Crawler, PageCapThrowsTypedError) {
  Rig rig{config_with(TimestampPolicy::kServerLocal, 0)};
  CrawlOptions options;
  options.max_pages = 2;
  try {
    (void)crawl_forum(rig.transport, rig.onion, options);
    FAIL() << "page cap never fired";
  } catch (const CrawlError& error) {
    EXPECT_EQ(error.category(), CrawlErrorCategory::kPageCap);
    EXPECT_EQ(error.onion(), rig.onion);
  }
}

TEST(Crawler, FetchFailureThrowsTypedError) {
  Rig rig{config_with(TimestampPolicy::kServerLocal, 0)};
  rig.handler_override = [](const tor::Request&, std::int64_t) {
    return tor::Response{500, "broken"};
  };
  try {
    (void)crawl_forum(rig.transport, rig.onion);
    FAIL() << "index fetch unexpectedly succeeded";
  } catch (const CrawlError& error) {
    EXPECT_EQ(error.category(), CrawlErrorCategory::kFetchFailed);
    EXPECT_FALSE(error.path().empty());
  }
}

TEST(Crawler, UnparsableBodyThrowsTypedError) {
  Rig rig{config_with(TimestampPolicy::kServerLocal, 0)};
  rig.handler_override = [](const tor::Request&, std::int64_t) {
    return tor::Response{200, "this is not a forum page"};
  };
  try {
    (void)crawl_forum(rig.transport, rig.onion);
    FAIL() << "garbage index unexpectedly parsed";
  } catch (const CrawlError& error) {
    EXPECT_EQ(error.category(), CrawlErrorCategory::kUnparsable);
  }
}

TEST(Calibration, RecoversServerOffset) {
  for (const std::int32_t offset_minutes : {0, 180, -300, 120}) {
    Rig rig{config_with(TimestampPolicy::kServerLocal, offset_minutes)};
    const auto result = calibrate_server_clock(rig.transport, rig.onion);
    ASSERT_TRUE(result.has_value()) << offset_minutes;
    EXPECT_TRUE(result->stable);
    EXPECT_EQ(result->offset_seconds, offset_minutes * 60) << offset_minutes;
  }
}

TEST(Calibration, UtcPolicyYieldsZeroOffset) {
  Rig rig{config_with(TimestampPolicy::kUtc, 9999)};  // offset ignored under kUtc
  const auto result = calibrate_server_clock(rig.transport, rig.onion);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->offset_seconds, 0);
}

TEST(Calibration, HiddenTimestampsReturnNullopt) {
  Rig rig{config_with(TimestampPolicy::kHidden, 0)};
  const auto result = calibrate_server_clock(rig.transport, rig.onion);
  EXPECT_FALSE(result.has_value());
}

TEST(Calibration, RandomDelayDetectedAsUnstable) {
  ForumConfig config = config_with(TimestampPolicy::kRandomDelay, 0);
  config.max_random_delay_seconds = 8 * 3600;
  Rig rig{config};
  CalibrationOptions options;
  options.probes = 3;
  const auto result = calibrate_server_clock(rig.transport, rig.onion, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->stable);
  EXPECT_GT(result->probe_spread_seconds, 90);
}

// Format sweep: the pipeline must survive every timestamp format a forum
// might render, including the relative one.
class PipelineFormatSweep : public ::testing::TestWithParam<TimestampFormat> {};

TEST_P(PipelineFormatSweep, CrawlAndCalibrationStillExact) {
  ForumConfig config = config_with(TimestampPolicy::kServerLocal, 120);
  config.timestamp_format = GetParam();
  Rig rig{config};
  const auto calibration = calibrate_server_clock(rig.transport, rig.onion);
  ASSERT_TRUE(calibration.has_value());
  EXPECT_EQ(calibration->offset_seconds, 120 * 60);

  const ScrapeDump dump = crawl_forum(rig.transport, rig.onion);
  EXPECT_GE(dump.records.size(), rig.engine.post_count() - dump.malformed_posts);
  // Historical posts use absolute forms; nothing should be dropped.
  EXPECT_EQ(dump.malformed_posts, 0u);
  const auto posts = to_utc_posts(dump, calibration->offset_seconds);
  std::size_t matched = 0;
  for (std::size_t i = 0; i < posts.size(); ++i) {
    if (posts[i].utc_time == rig.engine.true_time_of(dump.records[i].post_id)) ++matched;
  }
  // Relative stamps resolved near the crawl date can be off by a whole
  // day for posts made "today"/"yesterday" relative to the crawl; the
  // 2016 crowd posted a year before the 2017 crawl, so all must match.
  EXPECT_EQ(matched, posts.size());
}

INSTANTIATE_TEST_SUITE_P(AllFormats, PipelineFormatSweep,
                         ::testing::Values(TimestampFormat::kIso, TimestampFormat::kEuropean,
                                           TimestampFormat::kUsAmPm,
                                           TimestampFormat::kRelativeDay),
                         [](const ::testing::TestParamInfo<TimestampFormat>& info) {
                           return to_string(info.param);
                         });

TEST(Calibration, RepeatedCalibrationIsIdempotent) {
  // A second calibration reuses the already-registered handle (the forum
  // answers 409 to the duplicate signup) and recovers the same offset.
  Rig rig{config_with(TimestampPolicy::kServerLocal, 240)};
  const auto first = calibrate_server_clock(rig.transport, rig.onion);
  const auto second = calibrate_server_clock(rig.transport, rig.onion);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->offset_seconds, 240 * 60);
  EXPECT_EQ(second->offset_seconds, 240 * 60);
}

TEST(Calibration, ValidatesProbeCount) {
  Rig rig{config_with(TimestampPolicy::kUtc, 0)};
  CalibrationOptions options;
  options.probes = 0;
  EXPECT_THROW((void)calibrate_server_clock(rig.transport, rig.onion, options),
               std::invalid_argument);
}

TEST(ToUtcPosts, UndoesOffset) {
  Rig rig{config_with(TimestampPolicy::kServerLocal, 180)};
  const ScrapeDump dump = crawl_forum(rig.transport, rig.onion);
  const auto posts = to_utc_posts(dump, 180 * 60);
  ASSERT_EQ(posts.size(), dump.records.size());
  for (std::size_t i = 0; i < posts.size(); ++i) {
    EXPECT_EQ(posts[i].utc_time, rig.engine.true_time_of(dump.records[i].post_id));
    EXPECT_EQ(posts[i].author, dump.records[i].author);
  }
}

TEST(ToUtcPostsObserved, UsesObservationStamps) {
  Rig rig{config_with(TimestampPolicy::kHidden, 0)};
  const ScrapeDump dump = crawl_forum(rig.transport, rig.onion);
  const auto posts = to_utc_posts_observed(dump);
  ASSERT_EQ(posts.size(), dump.records.size());
  for (std::size_t i = 0; i < posts.size(); ++i) {
    EXPECT_EQ(posts[i].utc_time, dump.records[i].observed_utc);
  }
}

TEST(Crawler, EveryPostAppearsExactlyOnce) {
  // Pagination invariant: across all pages of all threads, each post id
  // appears exactly once — no duplicates at page boundaries, no holes.
  Rig rig{config_with(TimestampPolicy::kUtc, 0)};
  const ScrapeDump dump = crawl_forum(rig.transport, rig.onion);
  std::set<std::uint64_t> ids;
  for (const auto& record : dump.records) {
    EXPECT_TRUE(ids.insert(record.post_id).second) << "duplicate post " << record.post_id;
  }
  EXPECT_EQ(ids.size(), rig.engine.post_count());
}

// Completeness sweep: crawls of independently generated forums recover
// every post regardless of the crowd realization.
class CrawlCompletenessSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrawlCompletenessSweep, DumpMatchesEngineGroundTruth) {
  Rig rig{config_with(TimestampPolicy::kServerLocal, 60), small_crowd(GetParam())};
  const ScrapeDump dump = crawl_forum(rig.transport, rig.onion);
  ASSERT_EQ(dump.records.size(), rig.engine.post_count());
  for (const auto& record : dump.records) {
    ASSERT_TRUE(record.display_time.has_value());
    EXPECT_EQ(tz::to_utc_seconds(*record.display_time) - 3600,
              rig.engine.true_time_of(record.post_id));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrawlCompletenessSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(RateLimit, EngineRejectsBursts) {
  ForumConfig config = config_with(TimestampPolicy::kServerLocal, 0);
  config.rate_limit_per_minute = 5;
  ForumEngine engine{config, small_crowd()};
  const std::int64_t now = at(2017, 2, 1);
  int ok = 0;
  int throttled = 0;
  for (int i = 0; i < 12; ++i) {
    const auto response = engine.handle(tor::Request{"GET", "/index", ""}, now + i);
    ok += response.status == 200 ? 1 : 0;
    throttled += response.status == 429 ? 1 : 0;
  }
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(throttled, 7);
  // After the window rolls past, service resumes.
  EXPECT_EQ(engine.handle(tor::Request{"GET", "/index", ""}, now + 120).status, 200);
}

TEST(RateLimit, CrawlerBacksOffAndCompletes) {
  ForumConfig config = config_with(TimestampPolicy::kServerLocal, 60);
  config.rate_limit_per_minute = 30;
  Rig rig{config};
  const std::int64_t started = rig.clock.now_seconds();
  const ScrapeDump dump = crawl_forum(rig.transport, rig.onion);
  EXPECT_EQ(dump.records.size(), rig.engine.post_count());
  EXPECT_GT(rig.transport.stats().rate_limit_waits, 0u);
  // Politeness costs simulated time: minutes of backoff, not milliseconds.
  EXPECT_GT(rig.clock.now_seconds() - started, 120);
}

TEST(RateLimit, TransportCanPassThroughWhenDisabled) {
  ForumConfig config = config_with(TimestampPolicy::kServerLocal, 0);
  config.rate_limit_per_minute = 2;
  tor::TransportOptions transport_options;
  transport_options.rate_limit_backoff_seconds = 0;  // return the 429 raw
  Rig rig{config, small_crowd(), transport_options};
  int throttled = 0;
  for (int i = 0; i < 6; ++i) {
    throttled +=
        rig.transport.fetch(rig.onion, tor::Request{"GET", "/index", ""}).status == 429 ? 1 : 0;
  }
  EXPECT_GT(throttled, 0);
}

TEST(Monitor, StampsNewPostsWithinPollInterval) {
  // Start the monitor *before* the crowd's activity so posts appear live.
  synth::Dataset crowd = small_crowd(88);
  ForumConfig config = config_with(TimestampPolicy::kHidden, 0);
  util::SimClock clock{at(2016, 3, 1)};
  ForumEngine engine{config, crowd};
  tor::OnionTransport transport{clock, 7};
  const std::string onion =
      transport.host(1, [&engine](const tor::Request& request, std::int64_t now) {
        return engine.handle(request, now);
      });

  MonitorOptions options;
  options.poll_interval_seconds = 3600;
  options.duration_seconds = 20 * 86400;
  const ScrapeDump dump = monitor_forum(transport, onion, options);
  EXPECT_GT(dump.records.size(), 10u);
  for (const auto& record : dump.records) {
    const tz::UtcSeconds truth = engine.true_time_of(record.post_id);
    EXPECT_GE(record.observed_utc, truth);
    // Stamping error bounded by the poll interval (+ network time slack).
    EXPECT_LE(record.observed_utc - truth, options.poll_interval_seconds + 600);
  }
}

TEST(Monitor, BaselineBacklogIsNotRecorded) {
  // Monitor starting after all activity sees the backlog only -> nothing new.
  Rig rig{config_with(TimestampPolicy::kHidden, 0)};
  MonitorOptions options;
  options.poll_interval_seconds = 3600;
  options.duration_seconds = 2 * 86400;
  const ScrapeDump dump = monitor_forum(rig.transport, rig.onion, options);
  EXPECT_TRUE(dump.records.empty());
  EXPECT_GT(dump.pages_fetched, 0u);
}

TEST(Monitor, SurvivesAndCountsFailedPolls) {
  // The forum goes down for a stretch mid-monitoring: every request 500s.
  // The monitor must keep polling, count the failed sweeps in the dump,
  // and — because failed sweeps stage-and-discard — record each post that
  // appeared during the outage exactly once after recovery.
  synth::Dataset crowd = small_crowd(88);
  ForumConfig config = config_with(TimestampPolicy::kHidden, 0);
  util::SimClock clock{at(2016, 3, 1)};
  ForumEngine engine{config, crowd};
  tor::OnionTransport transport{clock, 7};
  const std::int64_t outage_start = at(2016, 3, 6);
  const std::int64_t outage_end = at(2016, 3, 11);
  const std::string onion = transport.host(
      1, [&engine, outage_start, outage_end](const tor::Request& request, std::int64_t now) {
        if (now >= outage_start && now < outage_end) {
          return tor::Response{500, "service unavailable"};
        }
        return engine.handle(request, now);
      });

  MonitorOptions options;
  options.poll_interval_seconds = 3600;
  options.duration_seconds = 20 * 86400;
  const ScrapeDump dump = monitor_forum(transport, onion, options);

  EXPECT_GT(dump.polls_failed, 0u);
  EXPECT_GT(dump.polls, dump.polls_failed);
  // Baseline + one sweep per interval, regardless of how many failed.
  EXPECT_EQ(dump.polls, 1u + 20u * 86400u / 3600u);

  std::set<std::uint64_t> ids;
  for (const auto& record : dump.records) {
    EXPECT_TRUE(ids.insert(record.post_id).second) << "post recorded twice";
    const tz::UtcSeconds truth = engine.true_time_of(record.post_id);
    EXPECT_GE(record.observed_utc, truth);
  }
  // Posts made during the outage are stamped at the first sweep after it.
  EXPECT_GT(dump.records.size(), 10u);
}

TEST(Monitor, ValidatesOptions) {
  Rig rig{config_with(TimestampPolicy::kHidden, 0)};
  MonitorOptions options;
  options.poll_interval_seconds = 0;
  EXPECT_THROW(monitor_forum(rig.transport, rig.onion, options), std::invalid_argument);
}

TEST(Monitor, ObservedStampsSupportProfiles) {
  // End-to-end property: the observed stamps of a live-monitored forum
  // reproduce the hourly activity shape of the true posting times.
  synth::Dataset crowd = small_crowd(99);
  ForumConfig config = config_with(TimestampPolicy::kHidden, 0);
  util::SimClock clock{at(2016, 2, 1)};
  ForumEngine engine{config, crowd};
  tor::OnionTransport transport{clock, 8};
  const std::string onion =
      transport.host(2, [&engine](const tor::Request& request, std::int64_t now) {
        return engine.handle(request, now);
      });
  MonitorOptions options;
  options.poll_interval_seconds = 1800;
  options.duration_seconds = 30 * 86400;
  const ScrapeDump dump = monitor_forum(transport, onion, options);
  ASSERT_GT(dump.records.size(), 50u);

  std::map<std::int64_t, int> true_hours;
  std::map<std::int64_t, int> observed_hours;
  for (const auto& record : dump.records) {
    ++observed_hours[(record.observed_utc / 3600) % 24];
    ++true_hours[(engine.true_time_of(record.post_id) / 3600) % 24];
  }
  // The busiest observed hour is within 2 hours of the busiest true hour.
  const auto busiest = [](const std::map<std::int64_t, int>& hours) {
    std::int64_t best = 0;
    int count = -1;
    for (const auto& [h, c] : hours) {
      if (c > count) {
        best = h;
        count = c;
      }
    }
    return best;
  };
  const std::int64_t diff = std::abs(busiest(observed_hours) - busiest(true_hours));
  EXPECT_LE(std::min(diff, 24 - diff), 2);
}

}  // namespace
}  // namespace tzgeo::forum
