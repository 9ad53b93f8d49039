#include "tzgeo_analyze/tokenizer.hpp"

#include <algorithm>
#include <cctype>

namespace tzgeo::analyze {

namespace {

[[nodiscard]] bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Scans one comment's text for marker spellings and records them on
/// `mark`.  Called once per comment per line (line comments are one call;
/// block comments get one call per line they span).
void parse_markers(std::string_view comment, LineMark& mark) {
  if (comment.find("tzgeo: hot") != std::string_view::npos) mark.hot = true;
  for (const std::string_view prefix : {std::string_view("tzgeo-lint: allow("),
                                        std::string_view("tzgeo: allow(")}) {
    std::size_t pos = 0;
    while ((pos = comment.find(prefix, pos)) != std::string_view::npos) {
      const std::size_t begin = pos + prefix.size();
      const std::size_t close = comment.find(')', begin);
      if (close == std::string_view::npos) break;
      std::string rule(comment.substr(begin, close - begin));
      if (!rule.empty() &&
          std::find(mark.allows.begin(), mark.allows.end(), rule) == mark.allows.end()) {
        mark.allows.push_back(std::move(rule));
      }
      pos = close;
    }
  }
}

}  // namespace

bool TokenizedSource::allowed(std::uint32_t line, std::string_view rule) const {
  if (line >= marks.size()) return false;
  const std::vector<std::string>& allows = marks[line].allows;
  return std::find(allows.begin(), allows.end(), rule) != allows.end();
}

bool TokenizedSource::hot_marked(std::uint32_t line) const {
  return line < marks.size() && marks[line].hot;
}

TokenizedSource tokenize(std::string_view text) {
  TokenizedSource out;
  out.stripped.assign(text);
  out.line_count = static_cast<std::uint32_t>(
      1 + std::count(text.begin(), text.end(), '\n'));
  out.marks.assign(out.line_count + 1, LineMark{});

  // Pass 1: blank comment/string/char-literal content, collecting marker
  // comments as they stream past.  Markers are parsed only from comment
  // states.
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_terminator;  // ")delim\"" for the active raw string
  std::string comment;         // text of the comment on the current line
  std::uint32_t line = 1;
  const auto flush_comment = [&] {
    if (!comment.empty() && line < out.marks.size()) parse_markers(comment, out.marks[line]);
    comment.clear();
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out.stripped[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out.stripped[i] = ' ';
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !is_word_char(text[i - 1]))) {
          const std::size_t open = text.find('(', i + 2);
          if (open != std::string_view::npos) {
            raw_terminator.assign(1, ')');
            raw_terminator.append(text.substr(i + 2, open - (i + 2)));
            raw_terminator.push_back('"');
            state = State::kRawString;
            for (std::size_t j = i; j <= open; ++j) {
              if (out.stripped[j] != '\n') out.stripped[j] = ' ';
            }
            i = open;
          }
        } else if (c == '"') {
          state = State::kString;
          out.stripped[i] = ' ';
        } else if (c == '\'') {
          // Digit separators (1'000'000) are part of a number, not a char
          // literal; a quote directly after a word character is one.
          if (i > 0 && is_word_char(text[i - 1])) break;
          state = State::kChar;
          out.stripped[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          flush_comment();
          state = State::kCode;
        } else {
          comment.push_back(c);
          out.stripped[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out.stripped[i] = ' ';
          out.stripped[i + 1] = ' ';
          ++i;
          flush_comment();
          state = State::kCode;
        } else if (c == '\n') {
          flush_comment();
        } else {
          comment.push_back(c);
          out.stripped[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          out.stripped[i] = ' ';
          if (next != '\0' && next != '\n') {
            out.stripped[i + 1] = ' ';
            ++i;
          }
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          out.stripped[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out.stripped[i] = ' ';
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          for (std::size_t j = 0; j < raw_terminator.size(); ++j) out.stripped[i + j] = ' ';
          i += raw_terminator.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out.stripped[i] = ' ';
        }
        break;
    }
    if (text[i] == '\n') ++line;
  }
  flush_comment();

  // Preprocessor lines (with backslash continuations) are excluded from
  // the token stream: `#define FOO {` would otherwise corrupt the brace
  // tracking every semantic pass depends on.
  std::vector<bool> is_pp(out.line_count + 2, false);
  {
    std::uint32_t current = 1;
    std::size_t start = 0;
    bool continued = false;
    while (start <= out.stripped.size()) {
      std::size_t end = out.stripped.find('\n', start);
      if (end == std::string::npos) end = out.stripped.size();
      const std::string_view l(out.stripped.data() + start, end - start);
      std::size_t first = l.find_first_not_of(" \t");
      const bool pp = continued || (first != std::string_view::npos && l[first] == '#');
      if (current < is_pp.size()) is_pp[current] = pp;
      continued = pp && !l.empty() && l.back() == '\\';
      ++current;
      if (end == out.stripped.size()) break;
      start = end + 1;
    }
  }

  // Pass 2: tokenize the stripped text.
  const std::string& s = out.stripped;
  std::uint32_t tline = 1;
  for (std::size_t i = 0; i < s.size();) {
    const char c = s[i];
    if (c == '\n') {
      ++tline;
      ++i;
      continue;
    }
    if (tline < is_pp.size() && is_pp[tline]) {
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t end = i + 1;
      while (end < s.size() && is_word_char(s[end])) ++end;
      out.tokens.push_back(Token{TokKind::kIdent, s.substr(i, end - i), tline});
      i = end;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < s.size() && std::isdigit(static_cast<unsigned char>(s[i + 1])) != 0)) {
      // pp-number: digits, word chars, dots, digit separators, and
      // sign characters directly after an exponent letter.
      std::size_t end = i + 1;
      while (end < s.size()) {
        const char d = s[end];
        if (is_word_char(d) || d == '.' || d == '\'') {
          ++end;
        } else if ((d == '+' || d == '-') &&
                   (s[end - 1] == 'e' || s[end - 1] == 'E' || s[end - 1] == 'p' ||
                    s[end - 1] == 'P')) {
          ++end;
        } else {
          break;
        }
      }
      out.tokens.push_back(Token{TokKind::kNumber, s.substr(i, end - i), tline});
      i = end;
      continue;
    }
    if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
      out.tokens.push_back(Token{TokKind::kPunct, "::", tline});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < s.size() && s[i + 1] == '>') {
      out.tokens.push_back(Token{TokKind::kPunct, "->", tline});
      i += 2;
      continue;
    }
    out.tokens.push_back(Token{TokKind::kPunct, std::string(1, c), tline});
    ++i;
  }
  return out;
}

}  // namespace tzgeo::analyze
