#include "util/csv.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <stdexcept>

namespace tzgeo::util {

namespace {

[[nodiscard]] bool needs_quoting(std::string_view field, char sep) noexcept {
  for (const char c : field) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void append_field(std::string& out, std::string_view field, char sep) {
  if (!needs_quoting(field, sep)) {
    out.append(field);
    return;
  }
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

void append_row(std::string& out, const std::vector<std::string>& fields, char sep) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out.push_back(sep);
    append_field(out, fields[i], sep);
  }
  out.push_back('\n');
}

constexpr std::uint64_t kEveryByte = 0x0101010101010101ULL;
constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;

/// Eight bytes at `p` with byte k in bits 8k..8k+7, on any host.
[[nodiscard]] std::uint64_t load_word(const char* p) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  if constexpr (std::endian::native == std::endian::big) {
    std::uint64_t swapped = 0;
    for (int k = 0; k < 8; ++k) swapped = (swapped << 8) | ((word >> (8 * k)) & 0xFF);
    word = swapped;
  }
  return word;
}

/// The high bit of every byte of `x` that is not zero, exactly (no
/// carry between bytes).
[[nodiscard]] constexpr std::uint64_t nonzero_bytes(std::uint64_t x) noexcept {
  return ((x & kLow7) + kLow7) | x;
}

/// Transposes the 8x8 bit matrix whose rows are the bytes of `x`: bit
/// 8r + c moves to bit 8c + r (Hacker's Delight, 7-3).
[[nodiscard]] constexpr std::uint64_t transpose_8x8(std::uint64_t x) noexcept {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x ^= t ^ (t << 28);
  return x;
}

/// Bit i = XOR of bits 0..i: 1 for every byte inside a quoted span (the
/// opening quote included, the closing one not).
[[nodiscard]] constexpr std::uint64_t prefix_xor(std::uint64_t x) noexcept {
  x ^= x << 1;
  x ^= x << 2;
  x ^= x << 4;
  x ^= x << 8;
  x ^= x << 16;
  x ^= x << 32;
  return x;
}

}  // namespace

std::size_t CsvTable::column(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  return npos;
}

CsvScanner::CsvScanner(std::string_view text, char sep) noexcept
    : text_(text), sep_(sep), plain_sep_(sep != '"' && sep != '\r' && sep != '\n') {
  if (!text_.empty()) index_block();
}

// tzgeo: hot
void CsvScanner::index_block() noexcept {
  const std::size_t available = text_.size() - block_;
  const char* bytes = text_.data() + block_;
  char tail[kBlockBytes] = {};
  if (available < kBlockBytes) {
    std::memcpy(tail, bytes, available);
    bytes = tail;
  }
  // Word k's per-byte flags (the high bit of each byte) shift down by
  // 7 - k, so bit 8j + k flags byte 8k + j of the block; one 8x8 bit
  // transpose per mask then puts byte i at bit i.
  const std::uint64_t quote = kEveryByte * static_cast<std::uint8_t>('"');
  const std::uint64_t sep = kEveryByte * static_cast<std::uint8_t>(sep_);
  const std::uint64_t lf = kEveryByte * static_cast<std::uint8_t>('\n');
  const std::uint64_t cr = kEveryByte * static_cast<std::uint8_t>('\r');
  std::uint64_t quotes = 0;
  std::uint64_t breaks = 0;  // separators, LFs and CRs
  for (unsigned k = 0; k < kBlockBytes / 8; ++k) {
    const std::uint64_t word = load_word(bytes + 8 * k);
    const std::uint64_t is_quote = ~nonzero_bytes(word ^ quote) & ~kLow7;
    const std::uint64_t is_break =
        ~(nonzero_bytes(word ^ sep) & nonzero_bytes(word ^ lf) & nonzero_bytes(word ^ cr)) &
        ~kLow7;
    quotes |= is_quote >> (7 - k);
    breaks |= is_break >> (7 - k);
  }
  quotes = transpose_8x8(quotes);
  breaks = transpose_8x8(breaks);
  if (available < kBlockBytes) {
    const std::uint64_t present = (std::uint64_t{1} << available) - 1;
    quotes &= present;
    breaks &= present;
  }
  const std::uint64_t inside = prefix_xor(quotes) ^ quote_carry_;
  quote_carry_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(inside) >> 63);
  structural_ = quotes | (breaks & ~inside);
}

bool CsvScanner::next_block() noexcept {
  if (block_ + kBlockBytes >= text_.size()) return false;
  block_ += kBlockBytes;
  index_block();
  return true;
}

// Per-row ingest scan.  The containers grown below (runs_, scratch_,
// fixups_, the caller's fields) are clear()ed per row but keep their
// capacity, so steady-state rows allocate nothing; each growth line
// carries an allow(hot-alloc) waiver recording that amortization.
// tzgeo: hot
bool CsvScanner::next(std::vector<std::string_view>& fields) {
  fields.clear();

  bool in_quotes = false;
  bool row_has_content = false;
  bool emitted = false;

  // A field is a sequence of contiguous content runs over text_; dropped
  // bytes (quote characters, escaped-quote halves, stray CRs) split runs.
  // The common single-run field is tracked inline and emitted as a
  // zero-copy view; only a multi-run field spills into runs_ and gets
  // concatenated into scratch_ (patched into `fields` at row end, once
  // scratch_ can no longer reallocate under the view).
  std::size_t run_begin = 0;
  std::size_t run_end = 0;
  bool has_run = false;
  bool multi_run = false;

  const auto extend = [&](std::size_t from, std::size_t to) {
    if (!has_run) {
      run_begin = from;
      run_end = to;
      has_run = true;
    } else if (run_end == from) {
      run_end = to;
    } else {
      runs_.emplace_back(run_begin, run_end);  // tzgeo-lint: allow(hot-alloc) amortized
      run_begin = from;
      run_end = to;
      multi_run = true;
    }
  };
  const auto finish_field = [&] {
    if (multi_run) {
      const std::size_t begin = scratch_.size();
      for (const auto& [from, to] : runs_) {
        scratch_.append(text_.substr(from, to - from));  // tzgeo-lint: allow(hot-alloc) amortized
      }
      scratch_.append(  // tzgeo-lint: allow(hot-alloc) amortized
          text_.substr(run_begin, run_end - run_begin));
      fixups_.push_back(  // tzgeo-lint: allow(hot-alloc) amortized
          Fixup{fields.size(), begin, scratch_.size() - begin});
      ++fixups_applied_;
      fields.emplace_back();  // tzgeo-lint: allow(hot-alloc) amortized
      runs_.clear();
      multi_run = false;
    } else if (has_run) {
      fields.push_back(  // tzgeo-lint: allow(hot-alloc) amortized
          text_.substr(run_begin, run_end - run_begin));
    } else {
      fields.emplace_back();  // tzgeo-lint: allow(hot-alloc) amortized
    }
    has_run = false;
  };

  // Only structural bytes are visited; the bytes between two of them are
  // content, inside quotes or out.  Plain rows — fields ended by a
  // separator or an LF, no quote, no CR — take the first loop, which emits
  // each field as a view as soon as its end is found; the first quote or
  // CR hands the rest of the row to the general loop below.
  const std::size_t n = text_.size();
  std::size_t cursor = pos_;
  for (;;) {
    const std::size_t at = peek_structural();
    if (at >= n) break;
    const char c = text_[at];
    if (c == sep_ && plain_sep_) {
      fields.push_back(text_.substr(cursor, at - cursor));  // tzgeo-lint: allow(hot-alloc) amortized
      row_has_content = true;
    } else if (c == '\n') {
      if (at > cursor || row_has_content) {
        fields.push_back(text_.substr(cursor, at - cursor));  // tzgeo-lint: allow(hot-alloc) amortized
        pop_structural();
        pos_ = at + 1;
        return true;
      }
    } else {
      break;
    }
    pop_structural();
    cursor = at + 1;
  }
  scratch_.clear();
  fixups_.clear();
  for (;;) {
    const std::size_t at = peek_structural();
    if (at > cursor) {
      extend(cursor, at);
      row_has_content = true;
    }
    if (at >= n) {
      cursor = n;
      break;
    }
    pop_structural();
    const char c = text_[at];
    cursor = at + 1;
    if (c == '"') {
      if (!in_quotes) {
        in_quotes = true;
        row_has_content = true;
      } else if (cursor < n && text_[cursor] == '"') {
        // Doubled quote: the second byte is content, and it is the next
        // structural byte.
        extend(cursor, cursor + 1);
        ++cursor;
        (void)peek_structural();
        pop_structural();
      } else {
        in_quotes = false;
      }
    } else if (c == '\r') {
      // tolerate CRLF and stray CRs outside quotes
    } else if (c == '\n') {
      if (row_has_content) {
        finish_field();
        emitted = true;
        break;
      }
    } else {
      finish_field();
      row_has_content = true;
    }
  }
  pos_ = cursor;
  if (in_quotes) throw std::invalid_argument("CSV: unterminated quoted field");
  if (!emitted) {
    if (!row_has_content) return false;
    finish_field();
  }
  for (const Fixup& fixup : fixups_) {
    fields[fixup.field] = std::string_view{scratch_}.substr(fixup.begin, fixup.size);
  }
  return true;
}

CsvWriter::CsvWriter(std::ostream& out, char sep) : out_(out), sep_(sep) {}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  line_.clear();
  append_row(line_, fields, sep_);
  out_ << line_;
}

void CsvWriter::write_row(const std::vector<double>& values, int precision) {
  // %.*f output never needs quoting, so format straight into the row
  // scratch with no per-value temporaries.
  line_.clear();
  char buffer[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) line_.push_back(sep_);
    const int written = std::snprintf(buffer, sizeof buffer, "%.*f", precision, values[i]);
    if (written > 0) line_.append(buffer, static_cast<std::size_t>(written));
  }
  line_.push_back('\n');
  out_ << line_;
}

std::string to_csv(const CsvTable& table, char sep) {
  std::string out;
  append_row(out, table.header, sep);
  for (const auto& row : table.rows) append_row(out, row, sep);
  return out;
}

CsvTable parse_csv(std::string_view text, char sep) {
  CsvTable table;
  CsvScanner scanner{text, sep};
  std::vector<std::string_view> fields;
  bool have_header = false;
  while (scanner.next(fields)) {
    if (!have_header) {
      table.header.assign(fields.begin(), fields.end());
      have_header = true;
      continue;
    }
    if (fields.size() != table.header.size()) {
      throw std::invalid_argument("CSV row arity mismatch");
    }
    table.rows.emplace_back(fields.begin(), fields.end());
  }
  return table;
}

}  // namespace tzgeo::util
