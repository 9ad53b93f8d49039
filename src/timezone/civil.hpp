// Proleptic-Gregorian civil calendar arithmetic.
//
// tzgeo carries its own civil-time substrate instead of relying on the
// platform's tz database: the paper's methodology depends on precise,
// reproducible DST handling for arbitrary regions, and the build must be
// hermetic.  The day<->triple algorithms follow Howard Hinnant's
// "chrono-compatible low-level date algorithms".
//
// Conventions:
//   * Instants are UtcSeconds: seconds since 1970-01-01T00:00:00Z.
//   * Civil dates are proleptic Gregorian; months/days are 1-based.
//   * Weekday: 0 = Sunday .. 6 = Saturday.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace tzgeo::tz {

/// Seconds since the Unix epoch (UTC).
using UtcSeconds = std::int64_t;

inline constexpr std::int64_t kSecondsPerMinute = 60;
inline constexpr std::int64_t kSecondsPerHour = 3600;
inline constexpr std::int64_t kSecondsPerDay = 86400;

/// A calendar date (no time-of-day, no zone).
struct CivilDate {
  std::int32_t year = 1970;
  std::int32_t month = 1;  ///< 1..12
  std::int32_t day = 1;    ///< 1..31

  friend auto operator<=>(const CivilDate&, const CivilDate&) = default;
};

/// A calendar date plus time-of-day (no zone).
struct CivilDateTime {
  CivilDate date;
  std::int32_t hour = 0;    ///< 0..23
  std::int32_t minute = 0;  ///< 0..59
  std::int32_t second = 0;  ///< 0..59

  friend auto operator<=>(const CivilDateTime&, const CivilDateTime&) = default;
};

/// True for Gregorian leap years.
[[nodiscard]] constexpr bool is_leap_year(std::int32_t year) noexcept {
  return year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
}

/// Days in the given month (1..12) of the given year.
[[nodiscard]] constexpr std::int32_t days_in_month(std::int32_t year, std::int32_t month) noexcept {
  constexpr std::int32_t lengths[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month == 2 && is_leap_year(year)) return 29;
  return lengths[month - 1];
}

/// Serial day number of a civil date (days since 1970-01-01; Hinnant).
/// Inline: the ingest hot path converts one parsed civil datetime per CSV
/// row, and this is pure integer arithmetic.
[[nodiscard]] inline constexpr std::int64_t days_from_civil(const CivilDate& date) noexcept {
  // Hinnant's days_from_civil, shifted so that 1970-01-01 -> 0.
  std::int64_t y = date.year;
  const std::int64_t m = date.month;
  const std::int64_t d = date.day;
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const std::int64_t yoe = y - era * 400;                                   // [0, 399]
  const std::int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const std::int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097 + doe - 719468;
}

/// Inverse of days_from_civil.
[[nodiscard]] CivilDate civil_from_days(std::int64_t days) noexcept;

/// Weekday of a civil date: 0 = Sunday .. 6 = Saturday.
[[nodiscard]] std::int32_t weekday_of(const CivilDate& date) noexcept;

/// Day of year (1..366).
[[nodiscard]] std::int32_t day_of_year(const CivilDate& date) noexcept;

/// The date of the nth (1-based) occurrence of `weekday` in (year, month).
/// Requires the occurrence to exist (n in 1..4 always exists; n == 5 may not).
[[nodiscard]] CivilDate nth_weekday_of_month(std::int32_t year, std::int32_t month,
                                             std::int32_t weekday, std::int32_t n);

/// The date of the last occurrence of `weekday` in (year, month).
[[nodiscard]] CivilDate last_weekday_of_month(std::int32_t year, std::int32_t month,
                                              std::int32_t weekday) noexcept;

/// Converts a civil datetime (interpreted as UTC) to an instant.
[[nodiscard]] inline constexpr UtcSeconds to_utc_seconds(const CivilDateTime& dt) noexcept {
  return days_from_civil(dt.date) * kSecondsPerDay + dt.hour * kSecondsPerHour +
         dt.minute * kSecondsPerMinute + dt.second;
}

/// Converts an instant to the civil datetime in UTC.
[[nodiscard]] CivilDateTime from_utc_seconds(UtcSeconds instant) noexcept;

/// Hour-of-day (0..23) of an instant offset by `offset_seconds` from UTC.
[[nodiscard]] std::int32_t hour_of_day(UtcSeconds instant, std::int64_t offset_seconds) noexcept;

/// Hours since the epoch, rounded toward negative infinity.  This is the
/// encoded (day, hour) activity cell of Equation 1 — day * 24 + hour of the
/// day and hour containing `instant` (see cell_of_day_hour) — computed by
/// one floor division, correct for pre-epoch instants.
[[nodiscard]] inline constexpr std::int64_t hour_cell_of(UtcSeconds instant) noexcept {
  const std::int64_t hours = instant / kSecondsPerHour;
  return instant % kSecondsPerHour < 0 ? hours - 1 : hours;
}

/// "YYYY-MM-DD" / "YYYY-MM-DD HH:MM:SS" rendering (always zero-padded).
[[nodiscard]] std::string to_string(const CivilDate& date);
[[nodiscard]] std::string to_string(const CivilDateTime& dt);

/// Parses a "YYYY-MM-DD HH:MM:SS" prefix of `text` into a validated civil
/// datetime — the branch-light replacement for the sscanf-based parsers
/// that used to sit in ingest and the forum scraper.  Number scanning
/// mirrors sscanf's "%d": optional leading whitespace, optional sign,
/// then decimal digits (so "2016-5-2 3:4:5" and "2016-05-12\t18:03:44"
/// parse, while "2016-13-01 ..." fails validation).  On success,
/// `*consumed` (when non-null) is set to the offset just past the seconds
/// field; callers decide what trailing bytes are acceptable.  Returns
/// std::nullopt on malformed or out-of-range input.
[[nodiscard]] std::optional<CivilDateTime> parse_civil_datetime(
    std::string_view text, std::size_t* consumed = nullptr) noexcept;

}  // namespace tzgeo::tz
