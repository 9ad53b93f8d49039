// The structural CSV scanner against the byte-at-a-time state machine it
// replaced (csv_oracle.hpp), and trace_from_csv at every thread count
// against an importer driven by that oracle.
//
// The documents are hostile on purpose: doubled quotes, quoted separators
// and newlines, CR and CRLF, blank lines, a BOM, ragged rows, unterminated
// quotes, and runs longer than the scanner's 64-byte block so quoted spans
// and escapes straddle block boundaries.  Every comparison runs under
// allocation_budget.hpp's 64 MiB counting operator new: no reservation may
// be sized by anything but the bytes present.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "allocation_budget.hpp"
#include "core/ingest.hpp"
#include "csv_oracle.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline_metrics.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace tzgeo {
namespace {

using testing::CsvOracle;

/// A random document over CSV's structural vocabulary.
std::string random_document(std::mt19937& rng, char sep, std::size_t tokens) {
  static const std::vector<std::string> kWords = {
      "a", "bb", "user_7", "2016-05-12 18:03:44", "1463076224", " x ", "\xE2\x82\xAC",
      std::string(70, 'w'), std::string(130, 'z')};
  std::string text;
  if (rng() % 8 == 0) text += "\xEF\xBB\xBF";  // BOM: content to the scanner
  for (std::size_t i = 0; i < tokens; ++i) {
    switch (rng() % 12) {
      case 0: text += '"'; break;
      case 1: text += "\"\""; break;
      case 2: text += sep; break;
      case 3: text += '\n'; break;
      case 4: text += "\r\n"; break;
      case 5: text += '\r'; break;
      case 6: text += "\n\n"; break;  // blank line
      case 7: {                       // a well-formed quoted field
        text += '"';
        text += kWords[rng() % kWords.size()];
        text += (rng() % 2 == 0) ? std::string{sep} : std::string{"\n"};
        text += "\"\"";
        text += kWords[rng() % kWords.size()];
        text += '"';
        break;
      }
      default: text += kWords[rng() % kWords.size()]; break;
    }
  }
  return text;
}

/// A random document over a tiny hostile alphabet (every byte structural
/// or nearly so).
std::string random_bytes(std::mt19937& rng, std::size_t length) {
  static constexpr std::string_view kAlphabet = "ab,\"\n\r x";
  std::string text;
  for (std::size_t i = 0; i < length; ++i) text += kAlphabet[rng() % kAlphabet.size()];
  return text;
}

/// Steps the scanner and the oracle together and requires the same rows,
/// fields, field storage (in place or scratch), offsets, fixup counts and
/// exception.
void expect_same_scan(std::string_view text, char sep) {
  CsvOracle oracle{text, sep};
  util::CsvScanner scanner{text, sep};
  std::vector<std::string_view> want;
  std::vector<std::string_view> got;
  const auto in_text = [text](std::string_view field) {
    return field.data() >= text.data() && field.data() < text.data() + text.size();
  };
  for (int row = 0;; ++row) {
    std::optional<std::string> oracle_error;
    std::optional<std::string> scanner_error;
    bool oracle_more = false;
    bool scanner_more = false;
    try {
      oracle_more = oracle.next(want);
    } catch (const std::invalid_argument& e) {
      oracle_error = e.what();
    }
    try {
      scanner_more = scanner.next(got);
    } catch (const std::invalid_argument& e) {
      scanner_error = e.what();
    }
    ASSERT_EQ(scanner_error, oracle_error) << "row " << row << " of: " << text;
    ASSERT_EQ(scanner.offset(), oracle.offset()) << "row " << row << " of: " << text;
    ASSERT_EQ(scanner.fixups_applied(), oracle.fixups_applied()) << "row " << row;
    if (oracle_error) return;
    ASSERT_EQ(scanner_more, oracle_more) << "row " << row << " of: " << text;
    if (!oracle_more) return;
    ASSERT_EQ(got.size(), want.size()) << "row " << row << " of: " << text;
    for (std::size_t f = 0; f < want.size(); ++f) {
      ASSERT_EQ(got[f], want[f]) << "row " << row << " field " << f << " of: " << text;
      if (!want[f].empty() && in_text(want[f])) {
        ASSERT_EQ(got[f].data(), want[f].data()) << "zero-copy field moved: " << text;
      } else if (!want[f].empty()) {
        ASSERT_FALSE(in_text(got[f])) << "escaped field not materialized: " << text;
      }
    }
  }
}

TEST(CsvOracle, FuzzStructuredDocumentsMatch) {
  std::mt19937 rng{20261021};
  for (int round = 0; round < 3000; ++round) {
    const char sep = round % 5 == 4 ? ';' : ',';
    const std::string text = random_document(rng, sep, 1 + rng() % 60);
    const AllocationBudget budget;
    expect_same_scan(text, sep);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CsvOracle, FuzzHostileBytesMatch) {
  std::mt19937 rng{20260806};
  for (int round = 0; round < 3000; ++round) {
    const std::string text = random_bytes(rng, rng() % 300);
    const AllocationBudget budget;
    expect_same_scan(text, ',');
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CsvOracle, EdgeDocumentsMatch) {
  const std::string long_run(200, 'q');
  const std::vector<std::string> documents = {
      "",
      "\n",
      "\r\n\r\n",
      "\"",
      "\"\"",
      "\"\"\"",
      "a,b",
      "a,b\n",
      "\"a\"\"b\",c\r\n",
      "x\"y,z\"w\n",
      "\xEF\xBB\xBF" "author,utc_time\n",
      "a\n\"" + long_run + "\n" + long_run + "\"\n",  // quoted span across blocks
      std::string(63, 'a') + "\"\"" + std::string(70, 'b') + "\n",
      std::string(63, 'a') + "\"" + "\"\"" + std::string(64, ',') + "\"\n",
      long_run + "\"unterminated, across" + long_run,
  };
  const AllocationBudget budget;
  for (const std::string& text : documents) expect_same_scan(text, ',');
  for (const std::string& text : documents) expect_same_scan(text, '\t');
}

TEST(CsvOracle, ParseCsvMatchesOracleTable) {
  std::mt19937 rng{7};
  for (int round = 0; round < 1000; ++round) {
    const std::string text = random_document(rng, ',', 1 + rng() % 30);
    // The table parse_csv must build: the oracle's rows, the first as
    // header, and an arity error on the first ragged row.
    std::optional<std::string> want_error;
    util::CsvTable want;
    try {
      CsvOracle oracle{text};
      std::vector<std::string_view> fields;
      bool have_header = false;
      while (oracle.next(fields)) {
        if (!have_header) {
          want.header.assign(fields.begin(), fields.end());
          have_header = true;
        } else if (fields.size() != want.header.size()) {
          throw std::invalid_argument("CSV row arity mismatch");
        } else {
          want.rows.emplace_back(fields.begin(), fields.end());
        }
      }
    } catch (const std::invalid_argument& e) {
      want_error = e.what();
    }
    const AllocationBudget budget;
    try {
      const util::CsvTable got = util::parse_csv(text);
      ASSERT_FALSE(want_error) << text;
      EXPECT_EQ(got.header, want.header) << text;
      EXPECT_EQ(got.rows, want.rows) << text;
    } catch (const std::invalid_argument& e) {
      ASSERT_EQ(std::optional<std::string>{e.what()}, want_error) << text;
    }
  }
}

// ---------------------------------------------------------------------------
// trace_from_csv against an importer driven by the oracle.

/// What an import must produce: users by id with their events in text
/// order, the row counts, the escaped-field count, or the first error.
struct Imported {
  std::map<std::uint64_t, std::vector<tz::UtcSeconds>> users;
  std::size_t rows_ok = 0;
  std::size_t rows_rejected = 0;
  std::uint64_t fixups = 0;
  std::optional<std::string> error;

  friend bool operator==(const Imported&, const Imported&) = default;
};

Imported oracle_import(std::string_view text) {
  Imported out;
  if (text.substr(0, 3) == "\xEF\xBB\xBF") text.remove_prefix(3);
  CsvOracle oracle{text};
  std::vector<std::string_view> fields;
  const auto consume = [&] {
    const std::string_view author = util::trim(fields[0]);
    const auto time = core::parse_utc_timestamp(fields[1]);
    if (author.empty() || !time) {
      ++out.rows_rejected;
      return;
    }
    out.users[core::user_id_of(author)].push_back(*time);
    ++out.rows_ok;
  };
  try {
    if (!oracle.next(fields)) return out;
    const std::size_t arity = fields.size();
    if (arity < 2) {
      while (oracle.next(fields)) {
        if (fields.size() != arity) throw std::invalid_argument("CSV row arity mismatch");
      }
      throw std::invalid_argument("trace_from_csv: need at least author,utc_time columns");
    }
    const std::string_view first = util::trim(fields[0]);
    if (first != "author" && first != "user" && first != "handle" && first != "member") {
      consume();
    }
    while (oracle.next(fields)) {
      if (fields.size() != arity) throw std::invalid_argument("CSV row arity mismatch");
      consume();
    }
  } catch (const std::invalid_argument& e) {
    out.error = e.what();
    out.users.clear();
    out.rows_ok = out.rows_rejected = 0;
    return out;
  }
  out.fixups = oracle.fixups_applied();
  return out;
}

Imported production_import(std::string_view text, std::size_t threads) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::MetricId fixups_counter = obs::PipelineMetrics::get().ingest_escaped_fixups;
  const std::uint64_t fixups_before = registry.counter_value(fixups_counter);
  Imported out;
  try {
    core::IngestOptions options;
    options.threads = threads;
    options.min_parallel_bytes = 0;
    const core::IngestResult result = core::trace_from_csv(text, options);
    for (const auto& [id, events] : result.trace.users()) out.users[id] = events;
    out.rows_ok = result.rows_ok;
    out.rows_rejected = result.rows_rejected;
  } catch (const std::invalid_argument& e) {
    out.error = e.what();
    return out;
  }
  // The counter is compiled out with the obs layer; then only the other
  // fields are compared.
  out.fixups = registry.counter_value(fixups_counter) - fixups_before;
  return out;
}

/// An author/time dump with hostile rows: quoted authors holding
/// separators, newlines and doubled quotes, CRLF, blank lines, junk times,
/// and (when `faults`) ragged rows or an unterminated quote somewhere.
std::string random_dump(std::mt19937& rng, std::size_t rows, bool faults) {
  std::string text = rng() % 4 == 0 ? "\xEF\xBB\xBF" : "";
  if (rng() % 3 != 0) text += "author,utc_time\r\n";
  for (std::size_t i = 0; i < rows; ++i) {
    switch (rng() % 6) {
      case 0: text += "\"last, first " + std::to_string(rng() % 9) + "\""; break;
      case 1: text += "\"line\nbreak \"\"" + std::to_string(rng() % 9) + "\"\"\""; break;
      case 2: text += ""; break;
      default: text += "user_" + std::to_string(rng() % 40); break;
    }
    text += ',';
    switch (rng() % 5) {
      case 0: text += std::to_string(1451606400 + rng() % 31536000); break;
      case 1: text += "2016-02-29 12:00:00Z"; break;
      case 2: text += "junk"; break;
      default: {
        char buffer[32];
        std::snprintf(buffer, sizeof buffer, "2016-%02u-%02u %02u:%02u:%02u",
                      static_cast<unsigned>(1 + rng() % 12), static_cast<unsigned>(1 + rng() % 31),
                      static_cast<unsigned>(rng() % 25), static_cast<unsigned>(rng() % 60),
                      static_cast<unsigned>(rng() % 60));
        text += buffer;
      }
    }
    if (faults && rng() % 97 == 0) text += rng() % 2 == 0 ? ",extra" : ",\"open";
    text += rng() % 2 == 0 ? "\r\n" : "\n";
    if (rng() % 16 == 0) text += "\n";
  }
  return text;
}

TEST(CsvOracle, TraceFromCsvMatchesOracleAtEveryThreadCount) {
  std::mt19937 rng{39};
  for (int round = 0; round < 60; ++round) {
    const bool faults = round % 3 == 2;
    const std::string text = random_dump(rng, 20 + rng() % 400, faults);
    const Imported want = oracle_import(text);
    for (std::size_t threads = 1; threads <= 8; ++threads) {
      Imported got;
      {
        const AllocationBudget budget;
        got = production_import(text, threads);
      }
      if (obs::kDisabled) got.fixups = want.fixups;
      ASSERT_EQ(got.error, want.error) << "threads=" << threads << " round " << round;
      ASSERT_EQ(got.rows_ok, want.rows_ok) << "threads=" << threads << " round " << round;
      ASSERT_EQ(got.rows_rejected, want.rows_rejected) << "threads=" << threads;
      ASSERT_EQ(got.fixups, want.fixups) << "threads=" << threads << " round " << round;
      ASSERT_TRUE(got.users == want.users) << "threads=" << threads << " round " << round;
    }
  }
}

TEST(CsvOracle, FirstErrorInTextOrderWins) {
  // Two faults of different kinds; whichever comes first in the text is
  // the one thrown, at every thread count.
  std::string rows;
  for (int i = 0; i < 4000; ++i) rows += "user" + std::to_string(i % 50) + ",1451606400\n";
  const std::string ragged = "one_field_only\n";
  const std::string open_quote = "user1,\"never closed\n";
  const std::string ragged_first = "author,utc_time\n" + rows + ragged + rows + open_quote + rows;
  const std::string quote_first = "author,utc_time\n" + rows + open_quote + rows + ragged + rows;
  for (std::size_t threads = 1; threads <= 8; ++threads) {
    const AllocationBudget budget;
    EXPECT_EQ(production_import(ragged_first, threads).error,
              std::optional<std::string>{"CSV row arity mismatch"});
    EXPECT_EQ(production_import(quote_first, threads).error,
              std::optional<std::string>{"CSV: unterminated quoted field"});
  }
}

}  // namespace
}  // namespace tzgeo
