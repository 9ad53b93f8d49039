// CSV ingestion and export of activity data.
//
// The methodology consumes nothing but (author, UTC timestamp) pairs, so
// the on-disk interchange format is a two-column CSV:
//
//   author,utc_time
//   wolf3,2016-05-12 18:03:44
//   ghost,1463076224            # epoch seconds are accepted too
//
// This is the adoption path for real data: scrape any board with any
// tool, dump author/time pairs, and feed them here.  Parsing is
// defensive — a scrape of the wild web always contains junk rows, which
// are counted rather than fatal.
//
// The importer streams: the structural util::CsvScanner yields zero-copy
// field views, timestamps take a fixed-position fast path before the
// general parser, and large inputs are split at quote-aware row
// boundaries.  Chunks scan on the shared thread pool into (user id, time)
// pairs partitioned by id; each partition is then grouped by user on the
// pool, reading chunks in text order, and the trace adopts the groups.
// The output — users, per-user event order, counters, and thrown
// errors — is the serial scan's for every thread count.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "core/activity.hpp"

namespace tzgeo::core {

/// Outcome of a CSV import.
struct IngestResult {
  ActivityTrace trace;
  std::size_t rows_ok = 0;
  std::size_t rows_rejected = 0;  ///< malformed author/timestamp rows
};

/// Tuning knobs for trace_from_csv.
struct IngestOptions {
  /// Parser threads: 0 uses the shared global pool; 1 forces a serial
  /// scan; N > 1 runs on a dedicated pool of N participants.
  std::size_t threads = 0;
  /// Inputs smaller than this parse serially — chunk bookkeeping costs
  /// more than it saves on small buffers.
  std::size_t min_parallel_bytes = 256 * 1024;
};

/// Parses one timestamp cell: "YYYY-MM-DD HH:MM:SS" (interpreted as UTC)
/// or integer epoch seconds.  Tolerates surrounding whitespace and a
/// trailing 'Z' (UTC designator) after the civil form.
[[nodiscard]] std::optional<tz::UtcSeconds> parse_utc_timestamp(std::string_view text) noexcept;

/// Parses CSV text with columns `author,utc_time`.  The time column
/// accepts "YYYY-MM-DD HH:MM:SS" (interpreted as UTC) or integer epoch
/// seconds.  A header row is detected and skipped; a UTF-8 BOM is
/// ignored.  Throws std::invalid_argument when the CSV itself is
/// structurally invalid or the required columns are missing.
[[nodiscard]] IngestResult trace_from_csv(std::string_view csv_text);
[[nodiscard]] IngestResult trace_from_csv(std::string_view csv_text,
                                          const IngestOptions& options);

/// Reads a CSV file from disk; throws std::runtime_error when unreadable.
[[nodiscard]] IngestResult trace_from_csv_file(const std::string& path);

/// Serializes a trace back to `author,utc_time` CSV (epoch seconds,
/// users ordered by id, events in stored order).
[[nodiscard]] std::string trace_to_csv(const ActivityTrace& trace);

/// Writes trace_to_csv to a file; throws std::runtime_error on failure.
void trace_to_csv_file(const ActivityTrace& trace, const std::string& path);

}  // namespace tzgeo::core
