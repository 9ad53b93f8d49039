// Schema checker for tzgeo_cli's observability outputs.
//
//   tzgeo_obs_check --metrics FILE.json --trace FILE.json
//
// Parses both files with util::JsonValue and checks the documents:
//
//   metrics  {"metrics": [...]}; every entry carries a name, a kind, and
//            a value (counter/gauge) or buckets/sum/count (histogram);
//            the documented tzgeo_<layer>_* names are all present.
//   trace    {"spans": [...]} (TraceBuffer::to_json); every span has an
//            id, a name and end_ns >= start_ns; every non-zero parent
//            names a retained span; the five pipeline stage spans
//            (ingest, profiles, filter, placement, gmm) are present.
//
// CI runs this against a fresh `tzgeo_cli demo` dump so a renamed metric
// or a dropped span fails the release job, not a dashboard three weeks
// later.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace {

using tzgeo::util::JsonValue;

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

/// Parses `path` and returns its top-level `key` array, or reports why not.
[[nodiscard]] std::optional<JsonValue> load_array(const std::string& path, std::string_view key) {
  std::optional<JsonValue> doc = JsonValue::parse(read_file(path));
  if (!doc) {
    std::fprintf(stderr, "FAIL %s: not valid JSON\n", path.c_str());
    return std::nullopt;
  }
  const JsonValue* array = doc->find(key);
  if (array == nullptr || !array->is_array()) {
    std::fprintf(stderr, "FAIL %s: missing top-level \"%.*s\" array\n", path.c_str(),
                 static_cast<int>(key.size()), key.data());
    return std::nullopt;
  }
  return *array;
}

[[nodiscard]] bool is_string_field(const JsonValue& entry, std::string_view key) {
  const JsonValue* value = entry.find(key);
  return value != nullptr && value->is_string() && !value->as_string().empty();
}

[[nodiscard]] bool is_number_field(const JsonValue& entry, std::string_view key) {
  const JsonValue* value = entry.find(key);
  return value != nullptr && value->is_number();
}

[[nodiscard]] int check_metrics(const std::string& path) {
  const std::optional<JsonValue> metrics = load_array(path, "metrics");
  if (!metrics) return 1;
  int failures = 0;
  std::set<std::string> names;
  for (std::size_t i = 0; i < metrics->size(); ++i) {
    const JsonValue& entry = *metrics->at(i);
    if (!is_string_field(entry, "name") || !is_string_field(entry, "kind")) {
      std::fprintf(stderr, "FAIL %s: metrics[%zu] lacks a name or kind\n", path.c_str(), i);
      ++failures;
      continue;
    }
    const std::string& name = entry.find("name")->as_string();
    const std::string& kind = entry.find("kind")->as_string();
    names.insert(name);
    bool complete = is_number_field(entry, "value");
    if (kind == "histogram") {
      const JsonValue* buckets = entry.find("buckets");
      complete = buckets != nullptr && buckets->is_array() && is_number_field(entry, "sum") &&
                 is_number_field(entry, "count");
    }
    if (!complete) {
      std::fprintf(stderr, "FAIL %s: %s (%s) lacks its value fields\n", path.c_str(),
                   name.c_str(), kind.c_str());
      ++failures;
    }
  }
  for (const char* name : kRequiredMetrics) {
    if (names.count(name) == 0) {
      std::fprintf(stderr, "FAIL %s: metric %s not present\n", path.c_str(), name);
      ++failures;
    }
  }
  return failures;
}

[[nodiscard]] int check_trace(const std::string& path) {
  const std::optional<JsonValue> spans = load_array(path, "spans");
  if (!spans) return 1;
  int failures = 0;
  std::set<std::int64_t> ids;
  std::set<std::int64_t> parents;
  std::set<std::string> names;
  for (std::size_t i = 0; i < spans->size(); ++i) {
    const JsonValue& span = *spans->at(i);
    if (!is_number_field(span, "id") || !is_number_field(span, "parent") ||
        !is_string_field(span, "name") || !is_number_field(span, "start_ns") ||
        !is_number_field(span, "end_ns")) {
      std::fprintf(stderr, "FAIL %s: spans[%zu] lacks id/parent/name/start_ns/end_ns\n",
                   path.c_str(), i);
      ++failures;
      continue;
    }
    ids.insert(span.find("id")->as_integer());
    parents.insert(span.find("parent")->as_integer());
    names.insert(span.find("name")->as_string());
    if (span.find("end_ns")->as_integer() < span.find("start_ns")->as_integer()) {
      std::fprintf(stderr, "FAIL %s: span %lld (%s) ends before it starts\n", path.c_str(),
                   static_cast<long long>(span.find("id")->as_integer()),
                   span.find("name")->as_string().c_str());
      ++failures;
    }
  }
  for (const std::int64_t parent : parents) {
    if (parent != 0 && ids.count(parent) == 0) {
      std::fprintf(stderr, "FAIL %s: parent span %lld is not in the trace\n", path.c_str(),
                   static_cast<long long>(parent));
      ++failures;
    }
  }
  for (const char* span : kRequiredSpans) {
    if (names.count(span) == 0) {
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
