// Tests for obs::Log: site registration, the level gate, the packed-CAS
// per-site rate limiter, ring retention/overwrite accounting, message and
// field truncation, and JSONL escaping.  Private Log instances keep the
// global ring (which the forum/tor wiring writes to) untouched;
// write_at() drives the rate-limiter clock deterministically.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/log.hpp"
#include "util/json.hpp"

namespace tzgeo::obs {
namespace {

#define TZGEO_SKIP_IF_OBS_DISABLED() \
  if (kDisabled) GTEST_SKIP() << "obs layer compiled out (TZGEO_OBS_DISABLED)"

constexpr std::uint64_t kSecond = 1'000'000'000ull;

[[nodiscard]] std::unique_ptr<Log> make_log(std::size_t capacity = 16) {
  return std::make_unique<Log>(capacity);
}

TEST(Log, SiteRegistrationIsIdempotentByName) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto log = make_log();
  const Log::SiteId a = log->site("test.site", LogLevel::kInfo);
  const Log::SiteId b = log->site("test.site", LogLevel::kWarn);
  EXPECT_NE(a, Log::kInvalidSite);
  EXPECT_EQ(a, b);  // found by name; first registration wins
}

TEST(Log, WriteLandsInRingWithTypedFields) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto log = make_log();
  const Log::SiteId site = log->site("test.write", LogLevel::kWarn, 0);
  const std::string onion = "abcdef.onion";
  log->write_at(7 * kSecond, site, "poll failed",
                {field("attempt", 3), field("onion", onion), field("ratio", 0.5),
                 field("fatal", false), field("bytes", std::uint64_t{42})});
  const std::vector<Log::RecordView> records = log->snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].t_ns, 7 * kSecond);
  EXPECT_EQ(records[0].level, LogLevel::kWarn);
  EXPECT_EQ(records[0].site, "test.write");
  EXPECT_EQ(records[0].message, "poll failed");
  EXPECT_FALSE(records[0].truncated);
  // The fields text is the body of a JSON object; wrapping it in braces
  // must parse, and the typed values must round-trip.
  std::string body = "{";
  body += records[0].fields_json;
  body += "}";
  const auto parsed = util::JsonValue::parse(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("attempt")->as_integer(), 3);
  EXPECT_EQ(parsed->find("onion")->as_string(), "abcdef.onion");
  EXPECT_DOUBLE_EQ(parsed->find("ratio")->as_number(), 0.5);
  EXPECT_FALSE(parsed->find("fatal")->as_bool());
  EXPECT_EQ(parsed->find("bytes")->as_integer(), 42);
  EXPECT_EQ(log->emitted(), 1u);
}

TEST(Log, LevelGateSuppressesAndCounts) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto log = make_log();
  const Log::SiteId debug_site = log->site("test.debug", LogLevel::kDebug, 0);
  EXPECT_FALSE(log->enabled(debug_site));  // default min level is kInfo
  log->write_at(kSecond, debug_site, "invisible");
  EXPECT_EQ(log->retained(), 0u);
  EXPECT_EQ(log->suppressed_level(), 1u);

  log->set_min_level(LogLevel::kDebug);
  EXPECT_TRUE(log->enabled(debug_site));
  log->write_at(2 * kSecond, debug_site, "visible");
  EXPECT_EQ(log->retained(), 1u);
}

TEST(Log, RuntimeKillSwitchSilencesWrites) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto log = make_log();
  const Log::SiteId site = log->site("test.kill", LogLevel::kError, 0);
  log->set_runtime_enabled(false);
  log->write_at(kSecond, site, "dropped");
  EXPECT_EQ(log->retained(), 0u);
  EXPECT_EQ(log->emitted(), 0u);
  log->set_runtime_enabled(true);
  log->write_at(2 * kSecond, site, "kept");
  EXPECT_EQ(log->retained(), 1u);
}

TEST(Log, RateLimiterCapsPerSecondAndReopensNextSecond) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto log = make_log();
  const Log::SiteId site = log->site("test.rate", LogLevel::kInfo, 2);
  // Three writes inside second 5: the third is suppressed.
  log->write_at(5 * kSecond, site, "a");
  log->write_at(5 * kSecond + 1, site, "b");
  log->write_at(5 * kSecond + 2, site, "c");
  EXPECT_EQ(log->emitted(), 2u);
  EXPECT_EQ(log->suppressed_rate(), 1u);
  // The window resets at the next second boundary.
  log->write_at(6 * kSecond, site, "d");
  EXPECT_EQ(log->emitted(), 3u);
  EXPECT_EQ(log->suppressed_rate(), 1u);
}

TEST(Log, UnlimitedSiteNeverRateLimits) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto log = make_log(128);
  const Log::SiteId site = log->site("test.unlimited", LogLevel::kInfo, 0);
  for (int i = 0; i < 100; ++i) log->write_at(kSecond, site, "x");
  EXPECT_EQ(log->emitted(), 100u);
  EXPECT_EQ(log->suppressed_rate(), 0u);
}

TEST(Log, RingOverwritesOldestAndCountsDrops) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto log = make_log(4);
  const Log::SiteId site = log->site("test.ring", LogLevel::kInfo, 0);
  for (int i = 0; i < 6; ++i) {
    log->write_at(kSecond + static_cast<std::uint64_t>(i), site, "r");
  }
  EXPECT_EQ(log->retained(), 4u);
  EXPECT_EQ(log->emitted(), 6u);
  EXPECT_EQ(log->dropped(), 2u);
  const std::vector<Log::RecordView> records = log->snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().seq, 2u);  // oldest two overwritten
  EXPECT_EQ(records.back().seq, 5u);
}

TEST(Log, OverlongMessageTruncatesWithFlag) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto log = make_log();
  const Log::SiteId site = log->site("test.trunc", LogLevel::kInfo, 0);
  const std::string huge(Log::kMessageCapacity * 2, 'm');
  log->write_at(kSecond, site, huge);
  const std::vector<Log::RecordView> records = log->snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].truncated);
  EXPECT_LT(records[0].message.size(), huge.size());
  EXPECT_EQ(records[0].message, huge.substr(0, records[0].message.size()));
}

TEST(Log, FieldOverflowDropsWholeFieldKeepingValidJson) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto log = make_log();
  const Log::SiteId site = log->site("test.fields", LogLevel::kInfo, 0);
  const std::string big(Log::kFieldsCapacity, 'v');  // cannot fit alone
  log->write_at(kSecond, site, "overflow",
                {field("ok", 1), field("big", big), field("tail", 2)});
  const std::vector<Log::RecordView> records = log->snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].truncated);
  // Whatever survived must still be a parseable object body: fields are
  // dropped whole, never cut mid-token.
  std::string body = "{";
  body += records[0].fields_json;
  body += "}";
  const auto parsed = util::JsonValue::parse(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NE(parsed->find("ok"), nullptr);
  EXPECT_EQ(parsed->find("big"), nullptr);
}

TEST(Log, JsonlEscapesHostileMessageBytes) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto log = make_log();
  const Log::SiteId site = log->site("test.escape", LogLevel::kInfo, 0);
  const std::string hostile = "quote\" backslash\\ newline\n ctrl\x01 end";
  log->write_at(kSecond, site, hostile, {field("k", "va\"l\nue")});
  const std::string jsonl = log->to_jsonl();
  std::stringstream lines{jsonl};
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const auto parsed = util::JsonValue::parse(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("msg")->as_string(), hostile);
  EXPECT_EQ(parsed->find("fields")->find("k")->as_string(), "va\"l\nue");
}

TEST(Log, ToJsonExposesRecordsArray) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto log = make_log();
  const Log::SiteId site = log->site("test.json", LogLevel::kError, 0);
  log->write_at(3 * kSecond, site, "boom", {field("n", 1)});
  const util::JsonValue root = log->to_json();
  const util::JsonValue* records = root.find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->size(), 1u);
  const util::JsonValue* entry = records->at(0);
  EXPECT_EQ(entry->find("level")->as_string(), "error");
  EXPECT_EQ(entry->find("site")->as_string(), "test.json");
  EXPECT_EQ(entry->find("msg")->as_string(), "boom");
  EXPECT_EQ(entry->find("fields")->find("n")->as_integer(), 1);
}

TEST(Log, ClearDropsRecordsAndCountersButKeepsSites) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto log = make_log();
  const Log::SiteId site = log->site("test.clear", LogLevel::kInfo, 0);
  log->write_at(kSecond, site, "x");
  log->clear();
  EXPECT_EQ(log->retained(), 0u);
  EXPECT_EQ(log->emitted(), 0u);
  // The site survives: a subsequent write needs no re-registration.
  log->write_at(2 * kSecond, site, "y");
  EXPECT_EQ(log->retained(), 1u);
}

TEST(Log, DisabledModeIsInert) {
  if (!kDisabled) GTEST_SKIP() << "compiled-out behavior only";
  Log log{8};
  const Log::SiteId site = log.site("test.disabled", LogLevel::kError, 0);
  EXPECT_EQ(site, Log::kInvalidSite);
  log.write(site, "nothing");
  EXPECT_EQ(log.retained(), 0u);
  EXPECT_EQ(log.emitted(), 0u);
}

}  // namespace
}  // namespace tzgeo::obs
