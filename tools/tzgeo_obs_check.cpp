// Schema checker for tzgeo_cli's observability outputs.
//
//   tzgeo_obs_check --metrics FILE.json --trace FILE.json
//
// Validates that the --metrics-out JSON parses, exposes a {"metrics": [...]}
// array whose entries carry name/kind/value (or buckets/sum/count), and
// contains the documented tzgeo_<layer>_* names; and that the --trace-out
// file is well-formed Chrome trace_event JSON with the five pipeline stage
// spans (ingest, profiles, filter, placement, gmm).  CI runs this against a
// fresh `tzgeo_cli demo` dump so a renamed metric or a dropped span fails
// the release job, not a dashboard three weeks later.
//
// util::json is a writer, so this tool carries its own small recursive-
// descent JSON scanner — validation only, no DOM: it confirms syntactic
// well-formedness and leaves content checks to substring probes against
// the (already validated) text.
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

/// Minimal validating JSON scanner (RFC 8259 grammar, no semantics).
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  /// True when the whole input is exactly one valid JSON value.
  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  [[nodiscard]] bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  [[nodiscard]] bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"' || !string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  [[nodiscard]] bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  [[nodiscard]] bool string() {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                std::isxdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string_view{"\"\\/bfnrt"}.find(esc) == std::string_view::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  [[nodiscard]] bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    std::fprintf(stderr, "tzgeo_obs_check: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Metric names every pipeline run must register (a subset of the full
/// inventory in DESIGN.md §10 — one representative per layer).
constexpr const char* kRequiredMetrics[] = {
    "tzgeo_ingest_rows_ok_total",
    "tzgeo_ingest_chunk_parse_us",
    "tzgeo_placement_users_total",
    "tzgeo_placement_zones_pruned_vectorized_total",
    "tzgeo_incremental_snapshots_total",
    "tzgeo_forum_polls_total",
    "tzgeo_tor_circuits_built_total",
};

/// Stage spans the acceptance criteria require in a demo/analyze trace.
constexpr const char* kRequiredSpans[] = {"ingest", "profiles", "filter", "placement", "gmm"};

[[nodiscard]] int check_metrics(const std::string& path) {
  const std::string text = read_file(path);
  int failures = 0;
  if (!JsonValidator{text}.valid()) {
    std::fprintf(stderr, "FAIL %s: not valid JSON\n", path.c_str());
    return 1;
  }
  if (text.find("\"metrics\"") == std::string::npos) {
    std::fprintf(stderr, "FAIL %s: missing top-level \"metrics\" array\n", path.c_str());
    ++failures;
  }
  for (const char* name : kRequiredMetrics) {
    if (text.find("\"" + std::string{name} + "\"") == std::string::npos) {
      std::fprintf(stderr, "FAIL %s: metric %s not present\n", path.c_str(), name);
      ++failures;
    }
  }
  for (const char* key : {"\"kind\"", "\"value\"", "\"buckets\"", "\"sum\"", "\"count\""}) {
    if (text.find(key) == std::string::npos) {
      std::fprintf(stderr, "FAIL %s: no %s field anywhere\n", path.c_str(), key);
      ++failures;
    }
  }
  return failures;
}

[[nodiscard]] int check_trace(const std::string& path) {
  const std::string text = read_file(path);
  int failures = 0;
  if (!JsonValidator{text}.valid()) {
    std::fprintf(stderr, "FAIL %s: not valid JSON\n", path.c_str());
    return 1;
  }
  if (text.find("\"traceEvents\"") == std::string::npos) {
    std::fprintf(stderr, "FAIL %s: missing \"traceEvents\" array\n", path.c_str());
    ++failures;
  }
  for (const char* key : {"\"ph\"", "\"ts\"", "\"dur\"", "\"pid\"", "\"tid\""}) {
    if (text.find(key) == std::string::npos) {
      std::fprintf(stderr, "FAIL %s: trace events missing %s\n", path.c_str(), key);
      ++failures;
    }
  }
  for (const char* span : kRequiredSpans) {
    if (text.find("\"name\": \"" + std::string{span} + "\"") == std::string::npos &&
        text.find("\"name\":\"" + std::string{span} + "\"") == std::string::npos) {
      std::fprintf(stderr, "FAIL %s: span \"%s\" not present\n", path.c_str(), span);
      ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path;
  std::string trace_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (flag == "--metrics") {
      metrics_path = argv[i + 1];
    } else if (flag == "--trace") {
      trace_path = argv[i + 1];
    } else {
      std::fprintf(stderr, "usage: tzgeo_obs_check [--metrics FILE] [--trace FILE]\n");
      return 2;
    }
  }
  if (metrics_path.empty() && trace_path.empty()) {
    std::fprintf(stderr, "usage: tzgeo_obs_check [--metrics FILE] [--trace FILE]\n");
    return 2;
  }
  int failures = 0;
  if (!metrics_path.empty()) failures += check_metrics(metrics_path);
  if (!trace_path.empty()) failures += check_trace(trace_path);
  if (failures == 0) std::printf("tzgeo_obs_check: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
