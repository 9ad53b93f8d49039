// Workload inputs for pipeline_bench, generated in memory from a seed.
//
// Each workload stands for one kind of user (README.md says why each
// exists).  Three feed `author,utc_time` CSV to the analyze pipeline; the
// live monitor reads rendered forum thread pages.  Every input records
// what went into it (junk rows, garbled timestamps, ...) so the benchmark
// can check the program's counts against the injected truth, and
// `--describe` can report how much of each workload has a property.
//
// A run's input is one or more boards, each from its own sub-seed.  The
// workloads whose cost is dominated by mixture fits (investigate, the
// live monitor) take many boards per run: EM's iteration count depends on
// each board's zone histogram, so a single board would make the run's
// median a property of the seed rather than of the program.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tzgeo::pipeline_bench {

enum class Workload { kForumDump, kTwitterCrowd, kInvestigate, kLiveMonitor };

/// Parses a workload name ("forum-dump", ...).
[[nodiscard]] std::optional<Workload> workload_of(std::string_view name);
[[nodiscard]] const char* name_of(Workload workload);

/// What a generated crowd is made of (shares are of all authors).
struct CrowdShape {
  std::size_t posts = 0;              ///< timed posts generated
  std::size_t authors = 0;            ///< authors with at least one post
  std::size_t authors_below_30 = 0;   ///< under the paper's activity threshold
  std::size_t flat_bots = 0;          ///< personas drawn as uniform-rate bots
  std::vector<std::int32_t> zones;    ///< standard UTC offsets of the components
};

/// A scraped board as `author,utc_time` CSV, in time order.
struct CsvInput {
  CrowdShape crowd;
  std::string csv;
  std::size_t rows = 0;       ///< data rows, junk included
  std::size_t junk_rows = 0;  ///< rows the importer must reject
};

/// A live board: thread pages in posting order, read a poll at a time.
struct PageInput {
  CrowdShape crowd;
  std::vector<std::string> pages;
  std::size_t bytes = 0;
  std::size_t garbled_posts = 0;  ///< unparsable time: the parser's malformed count
  std::size_t untimed_posts = 0;  ///< `notime` posts: parsed, but carry no time
  /// The board's display clock minus UTC, as calibration would find it.
  std::int64_t display_offset_seconds = 0;
};

inline constexpr std::size_t kPagesPerPoll = 25;

/// Boards in one run of the workload.
[[nodiscard]] std::size_t boards_of(Workload workload);

/// Builds board `board` of a CSV workload.  `scale` multiplies the crowd.
[[nodiscard]] CsvInput make_csv_input(Workload workload, std::uint64_t seed, std::size_t board,
                                      double scale);

/// Builds board `board` of the live monitor.
[[nodiscard]] PageInput make_page_input(std::uint64_t seed, std::size_t board, double scale);

}  // namespace tzgeo::pipeline_bench
