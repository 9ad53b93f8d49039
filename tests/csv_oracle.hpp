// The byte-at-a-time CSV state machine that util::CsvScanner replaced,
// kept verbatim as the differential oracle for the structural scanner.
//
// It walks the text one byte (or one bulk run of content bytes) at a time
// and tracks the quote state itself; the production scanner instead
// classifies quote, separator, LF and CR bytes 64 at a time into bitmasks
// and takes quote parity from a prefix XOR.  The two must agree on every
// input: rows, fields, offset(), fixups_applied() and the exception thrown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tzgeo::testing {

class CsvOracle {
 public:
  explicit CsvOracle(std::string_view text, char sep = ',') noexcept : text_(text), sep_(sep) {}

  bool next(std::vector<std::string_view>& fields);

  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }
  [[nodiscard]] std::uint64_t fixups_applied() const noexcept { return fixups_applied_; }

 private:
  struct Fixup {
    std::size_t field = 0;
    std::size_t begin = 0;
    std::size_t size = 0;
  };

  std::string_view text_;
  std::size_t pos_ = 0;
  char sep_;
  std::string scratch_;
  std::uint64_t fixups_applied_ = 0;
  std::vector<Fixup> fixups_;
  std::vector<std::pair<std::size_t, std::size_t>> runs_;
};

inline bool CsvOracle::next(std::vector<std::string_view>& fields) {
  fields.clear();
  scratch_.clear();
  fixups_.clear();

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
      runs_.emplace_back(run_begin, run_end);
      run_begin = from;
      run_end = to;
      multi_run = true;
    }
  };
  const auto finish_field = [&] {
    if (multi_run) {
      const std::size_t begin = scratch_.size();
      for (const auto& [from, to] : runs_) {
        scratch_.append(text_.substr(from, to - from));
      }
      scratch_.append(text_.substr(run_begin, run_end - run_begin));
      fixups_.push_back(Fixup{fields.size(), begin, scratch_.size() - begin});
      ++fixups_applied_;
      fields.emplace_back();
      runs_.clear();
      multi_run = false;
    } else if (has_run) {
      fields.push_back(text_.substr(run_begin, run_end - run_begin));
    } else {
      fields.emplace_back();
    }
    has_run = false;
  };

  std::size_t i = pos_;
  const std::size_t n = text_.size();
  while (i < n) {
    const char c = text_[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text_[i + 1] == '"') {
          extend(i + 1, i + 2);  // doubled quote: the second byte is content
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        // Bulk-scan quoted content up to the next quote.
        std::size_t j = i + 1;
        while (j < n && text_[j] != '"') ++j;
        extend(i, j);
        i = j;
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      row_has_content = true;
      ++i;
    } else if (c == '\r') {
      ++i;  // tolerate CRLF and stray CRs outside quotes
    } else if (c == '\n') {
      ++i;
      if (row_has_content) {
        finish_field();
        emitted = true;
        break;
      }
    } else if (c == sep_) {
      finish_field();
      row_has_content = true;
      ++i;
    } else {
      // Bulk-scan plain content up to the next structural byte.
      std::size_t j = i + 1;
      while (j < n) {
        const char d = text_[j];
        if (d == sep_ || d == '\n' || d == '\r' || d == '"') break;
        ++j;
      }
      extend(i, j);
      row_has_content = true;
      i = j;
    }
  }
  pos_ = i;
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

}  // namespace tzgeo::testing
