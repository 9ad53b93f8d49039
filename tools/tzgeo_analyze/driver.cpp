#include "tzgeo_analyze/driver.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>

#include "tzgeo_analyze/facts.hpp"
#include "tzgeo_analyze/fix.hpp"
#include "tzgeo_analyze/layering.hpp"
#include "tzgeo_analyze/lint_rules.hpp"
#include "tzgeo_analyze/passes.hpp"
#include "tzgeo_analyze/sarif.hpp"
#include "tzgeo_analyze/tokenizer.hpp"

namespace fs = std::filesystem;

namespace tzgeo::analyze {

namespace {

constexpr const char* kScanRoots[] = {"src", "tools", "tests", "bench", "examples"};

[[nodiscard]] std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Extracts the "file" entry values of a compile_commands.json and
/// normalizes each to a repo-relative src/... path (the TU restriction
/// only applies to src — tools/tests/bench are always scanned).
[[nodiscard]] std::set<std::string> parse_compile_commands(const std::string& text) {
  std::set<std::string> out;
  const std::string needle = "\"file\"";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    std::size_t p = pos + needle.size();
    while (p < text.size() && (text[p] == ' ' || text[p] == ':')) ++p;
    if (p < text.size() && text[p] == '"') {
      const std::size_t close = text.find('"', p + 1);
      if (close != std::string::npos) {
        std::string value = text.substr(p + 1, close - p - 1);
        std::replace(value.begin(), value.end(), '\\', '/');
        const std::size_t src = value.rfind("/src/");
        if (src != std::string::npos) {
          out.insert(value.substr(src + 1));
        } else if (value.rfind("src/", 0) == 0) {
          out.insert(value);
        }
      }
    }
    pos += needle.size();
  }
  return out;
}

}  // namespace

std::size_t AnalyzeResult::new_count() const {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (!f.baselined) ++n;
  }
  return n;
}

std::size_t AnalyzeResult::baselined_count() const {
  return findings.size() - new_count();
}

AnalyzeResult analyze_sources(const std::vector<SourceFile>& sources,
                              const std::vector<CmakeInput>& cmake,
                              const std::string& baseline_text, bool lint_only) {
  AnalyzeResult result;
  result.files_scanned = sources.size();

  std::vector<TokenizedSource> toks;
  toks.reserve(sources.size());
  for (const SourceFile& file : sources) toks.push_back(tokenize(file.text));

  for (std::size_t i = 0; i < sources.size(); ++i) {
    run_lint_rules(sources[i], toks[i], result.findings);
  }

  if (!lint_only) {
    std::vector<TuFacts> tus;
    tus.reserve(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      tus.push_back(extract_facts(sources[i], toks[i]));
    }

    LayerGraph graph;
    for (const CmakeInput& input : cmake) {
      parse_cmake_deps(input.module, input.text, graph);
    }
    finalize_layer_graph(graph);
    check_layering(graph, tus, result.findings);
    check_lock_order(tus, result.findings);
    check_hot_alloc(tus, toks, result.findings);
    check_determinism(tus, toks, result.findings);
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });

  const Baseline baseline = parse_baseline(baseline_text);
  result.stale_baseline = apply_baseline(baseline, result.findings);
  return result;
}

bool analyze_repo(const std::string& root, const std::string& compile_commands,
                  const std::string& baseline_text, bool lint_only, AnalyzeResult& result,
                  std::string& error) {
  const fs::path base(root);
  if (!fs::exists(base / "src")) {
    error = "no src/ under " + root + " — wrong root?";
    return false;
  }

  std::set<std::string> selected;
  if (!compile_commands.empty()) {
    const std::string text = read_file(compile_commands);
    if (text.empty()) {
      error = "cannot read compile_commands: " + compile_commands;
      return false;
    }
    selected = parse_compile_commands(text);
  }

  std::vector<fs::path> paths;
  for (const char* top : kScanRoots) {
    const fs::path dir = base / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& path = entry.path();
      if (path.extension() == ".hpp" || path.extension() == ".cpp") paths.push_back(path);
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<SourceFile> sources;
  sources.reserve(paths.size());
  for (const fs::path& path : paths) {
    const std::string rel = fs::relative(path, base).generic_string();
    if (!selected.empty() && path.extension() == ".cpp" && rel.rfind("src/", 0) == 0 &&
        selected.count(rel) == 0) {
      continue;  // src TU not in the compile database
    }
    sources.push_back(SourceFile{rel, read_file(path)});
  }

  std::vector<CmakeInput> cmake;
  for (const auto& entry : fs::directory_iterator(base / "src")) {
    if (!entry.is_directory()) continue;
    const fs::path lists = entry.path() / "CMakeLists.txt";
    if (!fs::exists(lists)) continue;
    cmake.push_back(CmakeInput{entry.path().filename().string(), read_file(lists)});
  }
  std::sort(cmake.begin(), cmake.end(),
            [](const CmakeInput& a, const CmakeInput& b) { return a.module < b.module; });

  result = analyze_sources(sources, cmake, baseline_text, lint_only);
  return true;
}

namespace {

[[nodiscard]] std::size_t count_rule(const AnalyzeResult& r, std::string_view rule) {
  std::size_t n = 0;
  for (const Finding& f : r.findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

}  // namespace

int self_test(std::vector<std::string>& log) {
  int failures = 0;
  const auto expect = [&](bool condition, const char* what) {
    if (!condition) {
      log.push_back(std::string("self-test FAILED: ") + what);
      ++failures;
    }
  };
  const std::vector<CmakeInput> no_cmake;

  // --- tokenizer -----------------------------------------------------
  {
    const TokenizedSource plain = tokenize("// tzgeo: hot\nint x;\n");
    expect(plain.hot_marked(1), "hot marker parsed from a line comment");
    const TokenizedSource in_string = tokenize("const char* s = R\"(// tzgeo: hot)\";\n");
    expect(!in_string.hot_marked(1), "hot marker inside a raw string is inert");
    const TokenizedSource pp = tokenize("#define OPEN {\nint a;\n");
    bool has_brace = false;
    for (const Token& token : pp.tokens) has_brace = has_brace || token.text == "{";
    expect(!has_brace, "preprocessor lines produce no tokens");
    const TokenizedSource allow = tokenize("int h = 24;  // tzgeo-lint: allow(magic-hours)\n");
    expect(allow.allowed(1, "magic-hours"), "allow() marker parsed");
    const TokenizedSource stripped = tokenize("int a = 1; // 24 bins\nchar c = '2';\n");
    expect(stripped.stripped.find("24") == std::string::npos,
           "comment content blanked in stripped text");
  }

  // --- layering ------------------------------------------------------
  {
    const std::vector<CmakeInput> cmake = {
        {"alpha", "add_library(tzgeo_alpha a.cpp)\n"
                  "target_link_libraries(tzgeo_alpha PRIVATE tzgeo_warnings)\n"},
        {"beta", "add_library(tzgeo_beta b.cpp)\n"
                 "target_link_libraries(tzgeo_beta PUBLIC tzgeo_alpha)\n"}};
    const std::vector<SourceFile> sources = {
        {"src/alpha/a.cpp", "#include \"beta/b.hpp\"\n"},
        {"src/beta/b.cpp", "#include \"alpha/a.hpp\"\n"}};
    const AnalyzeResult r = analyze_sources(sources, cmake, "", false);
    expect(count_rule(r, "layer-include") == 1, "unlinked cross-module include flagged");
    expect(r.findings.size() == 1 && r.findings[0].file == "src/alpha/a.cpp",
           "linked include direction is clean");
  }
  {
    const std::vector<CmakeInput> cmake = {
        {"gamma", "target_link_libraries(tzgeo_gamma PUBLIC tzgeo_delta)\n"},
        {"delta", "target_link_libraries(tzgeo_delta PUBLIC tzgeo_gamma)\n"}};
    const AnalyzeResult r = analyze_sources({}, cmake, "", false);
    expect(count_rule(r, "layer-cycle") == 1, "link-graph cycle reported once");
  }

  // --- lock order ----------------------------------------------------
  {
    const SourceFile ab_ba{"src/demo/locks.cpp", R"cpp(
namespace demo {
struct S {
  void ab() {
    std::lock_guard<std::mutex> g1(a_);
    std::lock_guard<std::mutex> g2(b_);
  }
  void ba() {
    std::lock_guard<std::mutex> g1(b_);
    std::lock_guard<std::mutex> g2(a_);
  }
  std::mutex a_;
  std::mutex b_;
};
}  // namespace demo
)cpp"};
    const AnalyzeResult r = analyze_sources({ab_ba}, no_cmake, "", false);
    expect(count_rule(r, "lock-order") >= 1, "AB/BA guard order cycle flagged");
  }
  {
    const SourceFile scoped{"src/demo/scoped.cpp", R"cpp(
namespace demo {
struct T {
  void ab() { std::scoped_lock g(a_, b_); }
  void ba() { std::scoped_lock g(b_, a_); }
  std::mutex a_;
  std::mutex b_;
};
}  // namespace demo
)cpp"};
    const AnalyzeResult r = analyze_sources({scoped}, no_cmake, "", false);
    expect(count_rule(r, "lock-order") == 0, "scoped_lock multi-acquire is atomic");
  }
  {
    const SourceFile recursive{"src/demo/recursive.cpp", R"cpp(
namespace demo {
struct R {
  void f() {
    std::lock_guard<std::mutex> g(m_);
    std::lock_guard<std::mutex> h(m_);
  }
  std::mutex m_;
};
}  // namespace demo
)cpp"};
    const AnalyzeResult r = analyze_sources({recursive}, no_cmake, "", false);
    expect(count_rule(r, "lock-order") == 1, "recursive same-mutex acquisition flagged");
  }
  {
    const SourceFile blocks{"src/demo/blocks.cpp", R"cpp(
namespace demo {
struct B {
  void s1() {
    { std::lock_guard<std::mutex> g(a_); }
    std::lock_guard<std::mutex> h(b_);
  }
  void s2() {
    { std::lock_guard<std::mutex> g(b_); }
    std::lock_guard<std::mutex> h(a_);
  }
  std::mutex a_;
  std::mutex b_;
};
}  // namespace demo
)cpp"};
    const AnalyzeResult r = analyze_sources({blocks}, no_cmake, "", false);
    expect(count_rule(r, "lock-order") == 0, "block-scoped guards release before reorder");
  }
  {
    const SourceFile via_call{"src/demo/via_call.cpp", R"cpp(
namespace demo {
struct C {
  void lock_a_then_call() {
    std::lock_guard<std::mutex> g(a_);
    takes_b();
  }
  void takes_b() { std::lock_guard<std::mutex> g(b_); }
  void lock_b_then_call() {
    std::lock_guard<std::mutex> g(b_);
    takes_a();
  }
  void takes_a() { std::lock_guard<std::mutex> g(a_); }
  std::mutex a_;
  std::mutex b_;
};
}  // namespace demo
)cpp"};
    const AnalyzeResult r = analyze_sources({via_call}, no_cmake, "", false);
    expect(count_rule(r, "lock-order") >= 1, "cycle through call edges flagged");
  }

  // --- hot-path allocation -------------------------------------------
  {
    const SourceFile hot{"src/demo/hot.cpp", R"cpp(
namespace demo {
// tzgeo: hot
void kernel(std::vector<int>& out) {
  out.push_back(1);
}
void warm(std::vector<int>& out) {
  out.push_back(1);
}
// tzgeo: hot
void reserved(std::vector<int>& out) {
  out.reserve(8);
  out.push_back(1);
}
// tzgeo: hot
void waived(std::vector<int>& out) {
  out.push_back(1);  // tzgeo-lint: allow(hot-alloc)
}
// tzgeo: hot
void heap() {
  int* p = new int;
  consume(p);
}
void region(std::vector<int>& out) {
  out.push_back(0);
  // tzgeo: hot
  out.push_back(1);
}
}  // namespace demo
)cpp"};
    const AnalyzeResult r = analyze_sources({hot}, no_cmake, "", false);
    expect(count_rule(r, "hot-alloc") == 3,
           "exactly kernel/new/region growth flagged (reserve+allow absolve)");
    bool kernel_hit = false;
    bool new_hit = false;
    for (const Finding& f : r.findings) {
      kernel_hit = kernel_hit || f.message.find("of kernel") != std::string::npos;
      new_hit = new_hit || f.message.find("'new'") != std::string::npos;
    }
    expect(kernel_hit, "unreserved push_back in hot function flagged");
    expect(new_hit, "operator new in hot function flagged");
  }

  // --- determinism ---------------------------------------------------
  {
    const SourceFile det{"src/demo/det.cpp", R"cpp(
namespace demo {
struct W {
  void save(Writer& w) {
    for (const auto& kv : table_) {
      w.write_row(kv.first);
    }
  }
  void debug_dump(Sink& s) {
    for (const auto& kv : table_) {
      s.consume(kv.first);
    }
  }
  std::unordered_map<int, int> table_;
};
struct X {
  void flush() {
    Checkpoint cp;
    emit(cp);
  }
  void emit(Checkpoint& cp) {
    for (const auto& kv : cache_) {
      cp.add(kv.first);
    }
  }
  std::unordered_map<int, int> cache_;
};
struct Y {
  void save_sorted(Writer& w) {
    for (const auto& kv : ordered_) {
      w.write_row(kv.first);
    }
  }
  std::map<int, int> ordered_;
};
}  // namespace demo
)cpp"};
    const AnalyzeResult r = analyze_sources({det}, no_cmake, "", false);
    expect(count_rule(r, "det-unordered-output") == 2,
           "unordered iteration feeding output flagged (direct + via call)");
    bool debug_flagged = false;
    for (const Finding& f : r.findings) {
      debug_flagged = debug_flagged || f.message.find("debug_dump") != std::string::npos;
    }
    expect(!debug_flagged, "unordered iteration away from sinks is clean");
  }

  // --- line-rule matchers --------------------------------------------
  expect(has_magic_hours_literal("int x = 24;"), "bare 24 flagged");
  expect(has_magic_hours_literal("double d = 24.0;"), "24.0 flagged");
  expect(has_magic_hours_literal("f(23u)"), "suffixed 23u flagged");
  expect(!has_magic_hours_literal("double d = 0.25;"), "0.25 not flagged");
  expect(!has_magic_hours_literal("int x = 245;"), "245 not flagged");
  expect(!has_magic_hours_literal("int x = 124;"), "124 not flagged");
  expect(!has_magic_hours_literal("x24 = 1"), "identifier x24 not flagged");
  expect(!has_magic_hours_literal("0x24"), "hex 0x24 not flagged");
  expect(!has_magic_hours_literal("1e24"), "exponent 1e24 not flagged");
  expect(!has_magic_hours_literal("d = 24.5;"), "24.5 not flagged");

  expect(contains_call("x = rand();", "rand"), "rand() flagged");
  expect(!contains_call("x = srand(1);", "rand"), "srand not matched by rand");
  expect(contains_call("srand(1);", "srand"), "srand() flagged");
  expect(!contains_call("rng.uniform_int(0, 3)", "int"), "uniform_int not matched by int");
  expect(contains_call("std::printf(\"x\")", "printf"), "std::printf flagged");
  expect(!contains_call("std::snprintf(b, n, \"x\")", "printf"), "snprintf not matched");
  // The stdout-io/stderr-log split hinges on the stderr token: fprintf to
  // stderr belongs to stderr-log, fprintf to any other FILE* to stdout-io.
  expect(contains_call("std::fprintf(stderr, \"x\")", "fprintf") &&
             contains_token("std::fprintf(stderr, \"x\")", "stderr"),
         "fprintf(stderr, ...) classified as stderr diagnostic");
  expect(!contains_token("std::fprintf(sink, \"x\")", "stderr"),
         "fprintf to another FILE* not classified as stderr");
  expect(!contains_token("g_stderr_like(x)", "stderr"),
         "identifier containing stderr not matched");
  expect(contains_call("perror(\"open\")", "perror"), "perror flagged");
  expect(contains_call("std::sscanf(s, \"%d\", &x)", "sscanf"), "std::sscanf flagged");
  expect(contains_call("sscanf (s, \"%d\", &x)", "sscanf"), "sscanf with space flagged");
  expect(!contains_call("vsscanf(s, f, ap)", "sscanf"), "vsscanf not matched by sscanf");

  expect(has_bad_catch("} catch (...) {"), "catch (...) flagged");
  expect(has_bad_catch("catch(std::exception e) {"), "catch-by-value flagged");
  expect(has_bad_catch("} catch ( ... ) {"), "spaced catch (...) flagged");
  expect(!has_bad_catch("} catch (const std::exception& e) {"),
         "catch by const reference not flagged");
  expect(!has_bad_catch("catch (const CrawlError& error) {"),
         "catch by reference not flagged");
  expect(!has_bad_catch("} catch (std::exception* e) {"),
         "catch by pointer not flagged");
  expect(!has_bad_catch("dispatch_catch(x)"), "identifier containing catch not flagged");
  expect(!has_bad_catch("int catchall = 0;"), "catchall identifier not flagged");

  expect(contains_prefix_token("__m256d acc = _mm256_setzero_pd();", "__m256"),
         "suffixed __m256d flagged by prefix match");
  expect(contains_prefix_token("_mm512_add_pd(a, b)", "_mm512_"),
         "_mm512_ intrinsic flagged");
  expect(contains_prefix_token("vld1q_f64(p)", "vld1q"), "vld1q_f64 flagged");
  expect(contains_prefix_token("float64x2_t q;", "float64x"), "float64x2_t flagged");
  expect(!contains_prefix_token("x__m256 = 1;", "__m256"),
         "identifier ending in __m256 not flagged (left boundary)");
  expect(!contains_prefix_token("register_mm_handler()", "_mm_"),
         "_mm_ inside an identifier not flagged");

  expect(contains_token("std::chrono::steady_clock::now()", "steady_clock"),
         "steady_clock flagged");
  expect(contains_token("chrono::high_resolution_clock::now()", "high_resolution_clock"),
         "high_resolution_clock flagged");
  expect(!contains_token("my_steady_clock_wrapper()", "steady_clock"),
         "identifier containing steady_clock not flagged");

  {
    const std::string stripped =
        tokenize("int a = 1; // 24 bins\nconst char* s = \"24\";\n/* 24 */ int b = 24;\n")
            .stripped;
    expect(stripped.find("24") != std::string::npos, "code literal survives stripping");
    expect(stripped.rfind("24") == stripped.find("24"),
           "comment and string literals stripped");
  }

  // --- lint rules on the shared tokenizer ----------------------------
  {
    const std::vector<SourceFile> sources = {
        {"src/demo/magic.cpp",
         "int bins = 24;\n"
         "int waived = 24;  // tzgeo-lint: allow(magic-hours)\n"
         "// a comment mentioning 24 bins\n"},
        {"src/demo/missing.hpp", "inline int f() { return 1; }\n"}};
    const AnalyzeResult r = analyze_sources(sources, no_cmake, "", true);
    expect(count_rule(r, "magic-hours") == 1, "bare literal flagged, waiver honored");
    expect(count_rule(r, "pragma-once") == 1, "header without pragma once flagged");
  }

  // --- baseline ------------------------------------------------------
  {
    const std::vector<SourceFile> sources = {{"src/demo/magic.cpp", "int bins = 24;\n"}};
    AnalyzeResult first = analyze_sources(sources, no_cmake, "", true);
    expect(first.new_count() == 1, "finding is new without a baseline");
    const std::string baseline = render_baseline(first.findings);
    const AnalyzeResult second = analyze_sources(sources, no_cmake, baseline, true);
    expect(second.new_count() == 0 && second.baselined_count() == 1,
           "baselined finding suppressed");
    expect(second.stale_baseline.empty(), "fresh baseline has no stale entries");
    const AnalyzeResult third = analyze_sources(
        {{"src/demo/magic.cpp", "int bins = kHoursPerDay;\n"}}, no_cmake, baseline, true);
    expect(third.new_count() == 0 && third.stale_baseline.size() == 1,
           "fixed finding leaves a stale baseline entry");
  }

  // --- SARIF ---------------------------------------------------------
  {
    std::vector<Finding> findings = {
        {"src/demo/magic.cpp", 3, "magic-hours", "bare 24 \"literal\"", "int x = 24;", false},
        {"src/demo/locks.cpp", 7, "lock-order", "cycle a -> b -> a", "a -> b", false}};
    const std::string sarif = to_sarif(findings);
    std::string why;
    expect(sarif_check(sarif, &why), "emitted SARIF validates");
    expect(sarif.find("\"startLine\": 3") != std::string::npos, "result carries line");
    std::string broken = sarif;
    broken.resize(broken.size() / 2);
    expect(!sarif_check(broken, &why), "truncated SARIF rejected");
    std::string bad_rule = sarif;
    const std::size_t pos = bad_rule.find("\"ruleId\": \"magic-hours\"");
    bad_rule.replace(pos, 23, "\"ruleId\": \"unknowable\"");
    expect(!sarif_check(bad_rule, &why), "result without rule descriptor rejected");
    const std::string empty = to_sarif({});
    expect(sarif_check(empty, &why), "empty report validates");
  }

  // --- fixes ---------------------------------------------------------
  {
    const SourceFile file{"src/demo/width.hpp",
                          "// widths\nnamespace demo {\ninline int width() { return 24; }\n"
                          "}  // namespace demo\n"};
    const FixResult fixed = compute_fixes(file, tokenize(file.text));
    expect(fixed.edits == 3, "literal + pragma + include fixed");
    expect(fixed.new_text.find("#pragma once") != std::string::npos, "pragma inserted");
    expect(fixed.new_text.find("return kHoursPerDay;") != std::string::npos,
           "24 replaced with kHoursPerDay");
    expect(fixed.new_text.find("#include \"util/constants.hpp\"") != std::string::npos,
           "constants include added");
    const AnalyzeResult after = analyze_sources(
        {{file.path, fixed.new_text}}, no_cmake, "", true);
    expect(count_rule(after, "magic-hours") == 0 && count_rule(after, "pragma-once") == 0,
           "fixed file re-analyzes clean");
    const SourceFile suffixed{"src/demo/suffix.cpp", "unsigned u = 24u;\n"};
    const FixResult skip = compute_fixes(suffixed, tokenize(suffixed.text));
    expect(skip.edits == 0, "suffixed literal reported but never rewritten");
  }

  return failures;
}

}  // namespace tzgeo::analyze
