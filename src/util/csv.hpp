// Minimal CSV reading/writing used by the bench harness to persist
// per-figure data series alongside the terminal rendering, and by the
// ingest pipeline to scan large author/time dumps without materializing
// them.
//
// Supports RFC-4180-style quoting (fields containing the separator, quotes,
// or newlines are double-quoted; embedded quotes are doubled).
//
// Two reading APIs share one scanner:
//   * CsvScanner — streaming, zero-copy: yields rows of std::string_view
//     fields pointing into the scanned buffer.  Only fields that need
//     unescaping (embedded doubled quotes, stray CRs, content around
//     quote characters) are materialized, into a per-row scratch arena
//     that is reused across rows.  This is the ingest hot path.
//   * parse_csv — materializes the whole document into a CsvTable; kept
//     for callers that want random access to rows.
//
// The scanner is structural (Langdale & Lemire, "Parsing Gigabytes of
// JSON per Second", VLDB J. 2019, stage 1): it classifies quote,
// separator, LF and CR bytes 64 at a time into bitmasks on plain
// uint64_t words, takes the in-quotes mask from a prefix XOR of the quote
// bits, and then visits only the structural bytes — quotes, and
// separators / line ends outside quotes.  Every byte between two
// structural bytes is field content.
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tzgeo::util {

/// A parsed CSV document: a header row plus data rows of equal arity.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column, or npos when missing.
  [[nodiscard]] std::size_t column(std::string_view name) const noexcept;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Streaming zero-copy CSV scanner over an in-memory buffer.
///
/// The dialect: quote-aware fields (a quote opens or closes a quoted span
/// anywhere in a field), doubled-quote escapes inside quotes, CRs
/// tolerated (and dropped) outside quotes, blank lines skipped.  Throws
/// std::invalid_argument on an unterminated quoted field.  The scanned
/// buffer must outlive the scanner.
class CsvScanner {
 public:
  explicit CsvScanner(std::string_view text, char sep = ',') noexcept;

  /// Scans the next row into `fields` (cleared first).  Returns false at
  /// end of input.  The views point into the scanned buffer or into an
  /// internal scratch arena; both stay valid until the next call.
  bool next(std::vector<std::string_view>& fields);

  /// Bytes consumed so far: the offset of the first unscanned byte.
  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }

  /// Fields materialized into the scratch arena so far (escaped fields the
  /// zero-copy path could not view in place).  Feeds the
  /// tzgeo_ingest_escaped_fixups_total counter.
  [[nodiscard]] std::uint64_t fixups_applied() const noexcept { return fixups_applied_; }

 private:
  /// A field emitted into scratch_: patched into `fields` at row end,
  /// once scratch_ can no longer reallocate under it.
  struct Fixup {
    std::size_t field = 0;  ///< index into the output row
    std::size_t begin = 0;  ///< offset into scratch_
    std::size_t size = 0;
  };

  /// Bytes classified per structural block.
  static constexpr std::size_t kBlockBytes = 64;

  /// Classifies the block at block_ into structural_, carrying the quote
  /// parity of everything before it in quote_carry_.
  void index_block() noexcept;
  /// Offset of the first structural byte not yet visited (a quote, or a
  /// separator, LF or CR outside quotes); text_.size() when none is left.
  [[nodiscard]] std::size_t peek_structural() noexcept {
    while (structural_ == 0) {
      if (!next_block()) return text_.size();
    }
    return block_ + static_cast<std::size_t>(std::countr_zero(structural_));
  }
  /// Marks the byte peek_structural() returned as visited.
  void pop_structural() noexcept { structural_ &= structural_ - 1; }
  /// Classifies the next block; false when the text ends first.
  bool next_block() noexcept;

  std::string_view text_;
  std::size_t pos_ = 0;
  char sep_;
  bool plain_sep_;                 ///< sep_ is not a quote, CR or LF
  std::size_t block_ = 0;          ///< offset of the classified block
  std::uint64_t structural_ = 0;   ///< its unvisited structural bytes, bit i = byte block_ + i
  std::uint64_t quote_carry_ = 0;  ///< all ones when a quoted span runs past the block
  std::string scratch_;  ///< unescaped field bytes, reused across rows
  std::uint64_t fixups_applied_ = 0;  ///< lifetime count of materialized fields
  std::vector<Fixup> fixups_;
  std::vector<std::pair<std::size_t, std::size_t>> runs_;  ///< spilled runs of a multi-run field
};

/// Streaming CSV writer.
class CsvWriter {
 public:
  /// Writes to `out`; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out, char sep = ',');

  /// Writes one row, quoting fields as needed.
  void write_row(const std::vector<std::string>& fields);

  /// Convenience: formats doubles with `precision` digits.
  void write_row(const std::vector<double>& values, int precision = 6);

 private:
  std::ostream& out_;
  char sep_;
  std::string line_;  ///< per-row scratch, reused across write_row calls
};

/// Serializes a whole table (header + rows).
[[nodiscard]] std::string to_csv(const CsvTable& table, char sep = ',');

/// Parses CSV text. The first row becomes the header.
/// Throws std::invalid_argument on unterminated quotes or ragged rows.
[[nodiscard]] CsvTable parse_csv(std::string_view text, char sep = ',');

}  // namespace tzgeo::util
