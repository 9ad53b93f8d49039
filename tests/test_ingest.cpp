#include "core/ingest.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "util/strings.hpp"

namespace tzgeo::core {
namespace {

/// The general timestamp path on its own — trim, integer epoch, then the
/// sscanf-compatible civil parser with its trailing-byte rule — which the
/// fixed-position fast path inside parse_utc_timestamp must agree with.
std::optional<tz::UtcSeconds> general_timestamp(std::string_view text) {
  text = util::trim(text);
  if (const auto epoch = util::parse_int(text)) return *epoch;
  std::size_t used = 0;
  const auto dt = tz::parse_civil_datetime(text, &used);
  if (!dt) return std::nullopt;
  std::size_t pos = used;
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  if (pos < text.size() && text[pos] == 'Z') ++pos;
  if (pos < text.size() && text[pos] != '\0') return std::nullopt;
  return tz::to_utc_seconds(*dt);
}

void expect_matches_general(const std::string& text) {
  EXPECT_EQ(parse_utc_timestamp(text), general_timestamp(text)) << "input: \"" << text << '"';
}

TEST(TraceFromCsv, HeaderAndEpochSeconds) {
  const auto result = trace_from_csv("author,utc_time\nwolf,1451606400\nwolf,1451610000\n");
  EXPECT_EQ(result.rows_ok, 2u);
  EXPECT_EQ(result.rows_rejected, 0u);
  EXPECT_EQ(result.trace.user_count(), 1u);
  EXPECT_EQ(result.trace.events_of(user_id_of("wolf")).size(), 2u);
  EXPECT_EQ(result.trace.events_of(user_id_of("wolf")).front(), 1451606400);
}

TEST(TraceFromCsv, CivilTimestampFormat) {
  const auto result = trace_from_csv("author,utc_time\nghost,2016-01-01 00:00:00\n");
  EXPECT_EQ(result.rows_ok, 1u);
  EXPECT_EQ(result.trace.events_of(user_id_of("ghost")).front(), 1451606400);
}

TEST(TraceFromCsv, MixedFormatsAndUsers) {
  const auto result = trace_from_csv(
      "author,utc_time\n"
      "a,2016-06-15 12:30:00\n"
      "b,1466000000\n"
      "a,1466000001\n");
  EXPECT_EQ(result.rows_ok, 3u);
  EXPECT_EQ(result.trace.user_count(), 2u);
}

TEST(TraceFromCsv, HeaderlessDataIsAccepted) {
  // First row is data, not a recognized header: it must not be lost.
  const auto result = trace_from_csv("wolf,1451606400\nghost,1451606401\n");
  EXPECT_EQ(result.rows_ok, 2u);
  EXPECT_EQ(result.trace.user_count(), 2u);
}

TEST(TraceFromCsv, AlternateHeaderNames) {
  const auto result = trace_from_csv("user,time\nwolf,1451606400\n");
  EXPECT_EQ(result.rows_ok, 1u);
  EXPECT_EQ(result.trace.user_count(), 1u);
}

TEST(TraceFromCsv, MalformedRowsCountedNotFatal) {
  const auto result = trace_from_csv(
      "author,utc_time\n"
      "good,1451606400\n"
      ",1451606400\n"                    // empty author
      "bad,not-a-time\n"                 // junk timestamp
      "bad,2016-13-01 00:00:00\n"        // invalid month
      "bad,2016-02-30 00:00:00\n"        // invalid day
      "also_good,2016-02-29 23:59:59\n"  // leap day is fine
  );
  EXPECT_EQ(result.rows_ok, 2u);
  EXPECT_EQ(result.rows_rejected, 4u);
}

TEST(TraceFromCsv, WhitespaceTolerated) {
  const auto result = trace_from_csv("author,utc_time\n  wolf  ,  1451606400  \n");
  EXPECT_EQ(result.rows_ok, 1u);
  EXPECT_EQ(result.trace.events_of(user_id_of("wolf")).size(), 1u);
}

TEST(ParseUtcTimestamp, CivilZuluAndWhitespace) {
  // Trailing whitespace and an uppercase 'Z' UTC designator are accepted
  // after the civil form; anything else after the seconds field is not.
  EXPECT_EQ(parse_utc_timestamp("2016-01-01 00:00:00"), 1451606400);
  EXPECT_EQ(parse_utc_timestamp("2016-01-01 00:00:00Z"), 1451606400);
  EXPECT_EQ(parse_utc_timestamp("  2016-01-01 00:00:00 \t"), 1451606400);
  EXPECT_EQ(parse_utc_timestamp("2016-01-01 00:00:00 Z"), 1451606400);
  EXPECT_FALSE(parse_utc_timestamp("2016-01-01 00:00:00z").has_value());
  EXPECT_FALSE(parse_utc_timestamp("2016-01-01 00:00:00ZZ").has_value());
  EXPECT_FALSE(parse_utc_timestamp("2016-01-01 00:00:00 extra").has_value());
}

TEST(ParseUtcTimestamp, LeapDayBoundaries) {
  EXPECT_TRUE(parse_utc_timestamp("2016-02-29 12:00:00").has_value());
  EXPECT_FALSE(parse_utc_timestamp("2015-02-29 12:00:00").has_value());
  EXPECT_TRUE(parse_utc_timestamp("2000-02-29 00:00:00").has_value());   // 400-year leap
  EXPECT_FALSE(parse_utc_timestamp("1900-02-29 00:00:00").has_value());  // 100-year non-leap
}

TEST(ParseUtcTimestamp, NegativeEpochSeconds) {
  // Pre-1970 instants: both the raw epoch form and the civil form.
  EXPECT_EQ(parse_utc_timestamp("-86400"), -86400);
  EXPECT_EQ(parse_utc_timestamp("1969-12-31 00:00:00"), -86400);
  EXPECT_EQ(parse_utc_timestamp("0"), 0);
}

TEST(ParseUtcTimestamp, FastPathMatchesGeneralPathAtEveryPosition) {
  // Each canonical string mutated at each of its 19 positions: replaced
  // by every byte class that matters, deleted, and with a byte inserted.
  const std::string replacements = std::string{"0159-: TZ/+\t\x80\xFF" "a"} + '\0';
  for (const std::string canonical :
       {"2016-05-12 18:03:44", "1999-12-31 23:59:59", "2000-02-29 00:00:00", "0000-01-01 00:00:00"}) {
    expect_matches_general(canonical);
    for (std::size_t at = 0; at < canonical.size(); ++at) {
      for (const char c : replacements) {
        std::string mutated = canonical;
        mutated[at] = c;
        expect_matches_general(mutated);
        std::string inserted = canonical;
        inserted.insert(inserted.begin() + static_cast<std::ptrdiff_t>(at), c);
        expect_matches_general(inserted);
      }
      std::string deleted = canonical;
      deleted.erase(at, 1);
      expect_matches_general(deleted);
    }
  }
}

TEST(ParseUtcTimestamp, FastPathMatchesGeneralPathAtFieldLimits) {
  // Each field at its maximum and one past it (and at zero).
  for (const std::string text :
       {"9999-12-31 23:59:59", "0000-01-01 00:00:00", "2016-12-01 00:00:00",
        "2016-13-01 00:00:00", "2016-00-01 00:00:00", "2016-01-31 00:00:00",
        "2016-01-32 00:00:00", "2016-04-30 00:00:00", "2016-04-31 00:00:00",
        "2016-01-00 00:00:00", "2016-01-01 23:00:00", "2016-01-01 24:00:00",
        "2016-01-01 00:59:00", "2016-01-01 00:60:00", "2016-01-01 00:00:59",
        "2016-01-01 00:00:60", "2016-01-01 99:99:99", "10000-01-01 00:00:00"}) {
    expect_matches_general(text);
  }
  // Feb 29 across the leap-year rules.
  for (const std::string text : {"1900-02-29 12:00:00", "2000-02-29 12:00:00",
                                 "2016-02-29 12:00:00", "2017-02-29 12:00:00",
                                 "2017-02-28 12:00:00"}) {
    expect_matches_general(text);
  }
  // Trailing designator, whitespace, NUL or a 20th digit; a leading space
  // or a sign.
  for (const std::string& text : std::vector<std::string>{
           "2016-05-12 18:03:44Z", "2016-05-12 18:03:44 ", "2016-05-12 18:03:44\t",
        std::string{"2016-05-12 18:03:44"} + '\0', "2016-05-12 18:03:001",
        " 2016-05-12 18:03:44", "+2016-05-12 18:03:44", "-2016-05-12 18:03:44",
        "2016-05-12 18:03:4", "2016-05-12T18:03:44"}) {
    expect_matches_general(text);
  }
}

TEST(ParseUtcTimestamp, FastPathMatchesGeneralPathOnEpochs) {
  for (const std::string text :
       {"0", "7", "1463076224", "000000000000000001", "999999999999999999",
        "1000000000000000000", "9223372036854775807", "9223372036854775808",
        "99999999999999999999", "00000000000000000001", "-1", "-86400", "-1463076224",
        "-9223372036854775808", "-9223372036854775809", "+1463076224", " 1463076224",
        "1463076224 ", "14630x6224", "", " "}) {
    expect_matches_general(text);
  }
  EXPECT_EQ(parse_utc_timestamp("999999999999999999"), 999999999999999999);
  EXPECT_EQ(parse_utc_timestamp("9223372036854775807"), 9223372036854775807);
  EXPECT_FALSE(parse_utc_timestamp("9223372036854775808").has_value());
}

TEST(ParseUtcTimestamp, FastPathMatchesGeneralPathOnRandomCivilFields) {
  // Random field values around and past every range limit.
  std::mt19937 rng{2016};
  char buffer[32];
  for (int i = 0; i < 20000; ++i) {
    std::snprintf(buffer, sizeof buffer, "%04u-%02u-%02u %02u:%02u:%02u",
                  static_cast<unsigned>(rng() % 10000), static_cast<unsigned>(rng() % 14),
                  static_cast<unsigned>(rng() % 33), static_cast<unsigned>(rng() % 26),
                  static_cast<unsigned>(rng() % 62), static_cast<unsigned>(rng() % 62));
    expect_matches_general(buffer);
  }
}

TEST(ParseUtcTimestamp, RejectsJunk) {
  EXPECT_FALSE(parse_utc_timestamp("").has_value());
  EXPECT_FALSE(parse_utc_timestamp("   ").has_value());
  EXPECT_FALSE(parse_utc_timestamp("not-a-time").has_value());
  EXPECT_FALSE(parse_utc_timestamp("2016-01-01").has_value());
  EXPECT_FALSE(parse_utc_timestamp("2016-01-01 24:00:00").has_value());
}

TEST(TraceFromCsv, Utf8BomIsIgnored) {
  const auto result = trace_from_csv(
      "\xEF\xBB\xBF"
      "author,utc_time\nwolf,1451606400\n");
  EXPECT_EQ(result.rows_ok, 1u);
  EXPECT_EQ(result.trace.user_count(), 1u);
  EXPECT_EQ(result.trace.events_of(user_id_of("wolf")).front(), 1451606400);
}

TEST(TraceFromCsv, CrLfRowsAndQuotedAuthors) {
  const auto result = trace_from_csv(
      "author,utc_time\r\n"
      "\"last, first\",1451606400\r\n"
      "\"multi\nline\",1451606401\r\n");
  EXPECT_EQ(result.rows_ok, 2u);
  EXPECT_EQ(result.trace.user_count(), 2u);
  EXPECT_EQ(result.trace.events_of(user_id_of("last, first")).size(), 1u);
  EXPECT_EQ(result.trace.events_of(user_id_of("multi\nline")).size(), 1u);
}

TEST(TraceFromCsv, ZuluTimestampsAccepted) {
  const auto result = trace_from_csv("author,utc_time\nwolf,2016-01-01 00:00:00Z\n");
  EXPECT_EQ(result.rows_ok, 1u);
  EXPECT_EQ(result.trace.events_of(user_id_of("wolf")).front(), 1451606400);
}

TEST(TraceFromCsv, EmptyInputYieldsEmptyTrace) {
  const auto result = trace_from_csv("");
  EXPECT_EQ(result.rows_ok, 0u);
  EXPECT_EQ(result.trace.user_count(), 0u);
}

TEST(TraceFromCsv, SingleColumnThrows) {
  EXPECT_THROW(trace_from_csv("only_one_column\nvalue\n"), std::invalid_argument);
}

TEST(TraceToCsv, RoundTripPreservesStructure) {
  ActivityTrace trace;
  trace.add(1, 1000);
  trace.add(1, 2000);
  trace.add(2, 1500);
  const auto result = trace_from_csv(trace_to_csv(trace));
  EXPECT_EQ(result.rows_ok, 3u);
  EXPECT_EQ(result.trace.user_count(), 2u);
  EXPECT_EQ(result.trace.event_count(), 3u);
  // Per-user event multisets survive (ids are re-derived from handles).
  std::size_t with_two = 0;
  for (const auto& [user, events] : result.trace.users()) {
    if (events.size() == 2) ++with_two;
  }
  EXPECT_EQ(with_two, 1u);
}

TEST(TraceCsvFile, WriteAndReadBack) {
  ActivityTrace trace;
  trace.add("someone", 1451606400);
  const std::string path = ::testing::TempDir() + "tzgeo_ingest_test.csv";
  trace_to_csv_file(trace, path);
  const auto result = trace_from_csv_file(path);
  EXPECT_EQ(result.rows_ok, 1u);
  std::remove(path.c_str());
}

TEST(TraceCsvFile, MissingFileThrows) {
  EXPECT_THROW(trace_from_csv_file("/nonexistent/dir/file.csv"), std::runtime_error);
}

TEST(TraceCsvFile, UnwritablePathThrows) {
  ActivityTrace trace;
  trace.add(1, 1);
  EXPECT_THROW(trace_to_csv_file(trace, "/nonexistent/dir/file.csv"), std::runtime_error);
}

}  // namespace
}  // namespace tzgeo::core
