// C++ tokenizer for tzgeo_analyze: comments, string literals, char
// literals, and raw strings are handled exactly once, here — every rule
// and pass downstream sees either the stripped text (line-oriented lint
// rules) or the token stream (semantic fact extraction), never the raw
// bytes.
//
// Two outputs from one scan:
//   * `stripped` — the input with comment/string/char-literal content
//     blanked to spaces, newlines preserved, so line-oriented rules can
//     getline() over it and line numbers survive.
//   * `tokens`   — identifiers, pp-numbers, and punctuation with 1-based
//     line numbers.  Preprocessor lines (continuation-aware) produce no
//     tokens: macro bodies would otherwise corrupt brace tracking.
//
// Marker comments are parsed out of comment text during the same scan
// (never out of string literals, so fixture code embedded in raw strings
// cannot mark the embedding file):
//   * `tzgeo: hot`                — opens a hot region (hot-path
//     allocation pass; see facts.hpp for the attachment rules)
//   * `tzgeo-lint: allow(<rule>)` — waives <rule> on that line (the
//     spelling `tzgeo: allow(<rule>)` is accepted as an alias)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tzgeo::analyze {

enum class TokKind : std::uint8_t { kIdent, kNumber, kPunct };

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  std::uint32_t line = 1;
};

/// Per-line marker state, parsed from comment text only.
struct LineMark {
  bool hot = false;
  std::vector<std::string> allows;
};

struct TokenizedSource {
  std::string stripped;          ///< blanked text, newlines preserved
  std::vector<Token> tokens;     ///< excludes preprocessor lines
  std::vector<LineMark> marks;   ///< 1-based; index 0 unused
  std::uint32_t line_count = 0;

  /// True when `rule` is waived on `line` by an allow() marker.
  [[nodiscard]] bool allowed(std::uint32_t line, std::string_view rule) const;

  /// True when `line` carries a `tzgeo: hot` marker.
  [[nodiscard]] bool hot_marked(std::uint32_t line) const;
};

[[nodiscard]] TokenizedSource tokenize(std::string_view text);

}  // namespace tzgeo::analyze
