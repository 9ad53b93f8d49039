// tzgeo_analyze — multi-pass static analysis for the tzgeo tree.
//
//   tzgeo_analyze [REPO_ROOT]
//                 [--compile-commands FILE]  select src TUs from the build's
//                                            compile_commands.json
//                 [--baseline FILE]          suppress grandfathered findings
//                 [--write-baseline]         rewrite the baseline to cover
//                                            every current finding
//                 [--sarif-out FILE]         emit SARIF 2.1.0 (validated
//                                            before writing)
//                 [--fix] [--fix-dry-run]    apply / preview mechanical fixes
//                 [--lint-only]              line rules only, skip the
//                                            semantic passes
//                 [--self-test]              run the in-memory fixture suite
//
// `tzgeo_analyze --lint-only` is the lint entry point (ctest tzgeo_lint).
//
// Passes: the ten tzgeo-lint line rules (shared tokenizer), include-graph
// layering against src/*/CMakeLists.txt link deps, RAII lock-order cycles,
// hot-path allocation (`tzgeo: hot` regions), and the determinism audit
// (unordered iteration feeding checkpoint/CRC/exporter output).
//
// Exit codes: 0 clean, 1 non-baselined findings, 2 usage or I/O error.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "tzgeo_analyze/baseline.hpp"
#include "tzgeo_analyze/driver.hpp"
#include "tzgeo_analyze/fix.hpp"
#include "tzgeo_analyze/sarif.hpp"
#include "tzgeo_analyze/tokenizer.hpp"

namespace {

struct Options {
  std::string root = ".";
  std::string compile_commands;
  std::string baseline_path;
  bool write_baseline = false;
  std::string sarif_out;
  bool fix = false;
  bool fix_dry_run = false;
  bool lint_only = false;
  bool run_self_test = false;
};

void print_usage() {
  std::cout << "usage: tzgeo_analyze [REPO_ROOT] [--compile-commands FILE]\n"
               "                     [--baseline FILE] [--write-baseline]\n"
               "                     [--sarif-out FILE] [--fix] [--fix-dry-run]\n"
               "                     [--lint-only] [--self-test]\n"
               "Multi-pass static analysis for the tzgeo tree; exits 1 on\n"
               "non-baselined findings.\n";
}

[[nodiscard]] std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Re-runs the fixer over the scanned tree.  Returns 2 on I/O failure.
[[nodiscard]] int run_fix_mode(const Options& opts) {
  namespace ta = tzgeo::analyze;
  // Reuse the repo scan through analyze_repo's file discovery by walking
  // the same roots directly (the fixer needs file contents anyway).
  int total_edits = 0;
  int files_changed = 0;
  for (const char* top : {"src", "tools", "tests", "bench", "examples"}) {
    const std::string dir = opts.root + "/" + top;
    std::error_code ec;
    const std::filesystem::path p(dir);
    if (!std::filesystem::exists(p, ec)) continue;
    std::vector<std::filesystem::path> paths;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(p)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() == ".hpp" || entry.path().extension() == ".cpp") {
        paths.push_back(entry.path());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& path : paths) {
      const std::string rel =
          std::filesystem::relative(path, opts.root).generic_string();
      const ta::SourceFile file{rel, read_text(path.string())};
      const ta::FixResult result = ta::compute_fixes(file, ta::tokenize(file.text));
      if (result.edits == 0) continue;
      total_edits += result.edits;
      ++files_changed;
      for (const std::string& line : result.diff) std::cout << line << "\n";
      if (opts.fix) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out) {
          std::cout << "tzgeo-analyze: cannot write " << rel << "\n";
          return 2;
        }
        out << result.new_text;
      }
    }
  }
  std::cout << "tzgeo-analyze: " << (opts.fix ? "applied " : "would apply ")
            << total_edits << " fix(es) in " << files_changed << " file(s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  namespace ta = tzgeo::analyze;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cout << "tzgeo-analyze: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--self-test") {
      opts.run_self_test = true;
    } else if (arg == "--compile-commands") {
      opts.compile_commands = next_value("--compile-commands");
    } else if (arg == "--baseline") {
      opts.baseline_path = next_value("--baseline");
    } else if (arg == "--write-baseline") {
      opts.write_baseline = true;
    } else if (arg == "--sarif-out") {
      opts.sarif_out = next_value("--sarif-out");
    } else if (arg == "--fix") {
      opts.fix = true;
    } else if (arg == "--fix-dry-run") {
      opts.fix_dry_run = true;
    } else if (arg == "--lint-only") {
      opts.lint_only = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cout << "tzgeo-analyze: unknown option " << arg << "\n";
      print_usage();
      return 2;
    } else {
      opts.root = arg;
    }
  }

  if (opts.run_self_test) {
    std::vector<std::string> log;
    const int failures = ta::self_test(log);
    for (const std::string& line : log) std::cout << line << "\n";
    if (failures == 0) std::cout << "tzgeo-analyze self-test: all checks passed\n";
    return failures == 0 ? 0 : 1;
  }
  if (opts.fix || opts.fix_dry_run) return run_fix_mode(opts);

  const auto started = std::chrono::steady_clock::now();
  const std::string baseline_text =
      opts.baseline_path.empty() ? std::string() : read_text(opts.baseline_path);
  ta::AnalyzeResult result;
  std::string error;
  if (!ta::analyze_repo(opts.root, opts.compile_commands, baseline_text, opts.lint_only,
                        result, error)) {
    std::cout << "tzgeo-analyze: " << error << "\n";
    return 2;
  }

  for (const ta::Finding& f : result.findings) {
    if (f.baselined) continue;
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  }
  for (const std::string& stale : result.stale_baseline) {
    std::cout << "tzgeo-analyze: warning: stale baseline entry (fixed? run "
                 "--write-baseline to prune): "
              << stale << "\n";
  }

  if (opts.write_baseline) {
    if (opts.baseline_path.empty()) {
      std::cout << "tzgeo-analyze: --write-baseline needs --baseline FILE\n";
      return 2;
    }
    std::ofstream out(opts.baseline_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cout << "tzgeo-analyze: cannot write " << opts.baseline_path << "\n";
      return 2;
    }
    out << ta::render_baseline(result.findings);
    std::cout << "tzgeo-analyze: baseline written to " << opts.baseline_path << "\n";
  }

  if (!opts.sarif_out.empty()) {
    const std::string sarif = ta::to_sarif(result.findings);
    std::string why;
    if (!ta::sarif_check(sarif, &why)) {
      std::cout << "tzgeo-analyze: internal error: emitted SARIF invalid: " << why << "\n";
      return 2;
    }
    std::ofstream out(opts.sarif_out, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cout << "tzgeo-analyze: cannot write " << opts.sarif_out << "\n";
      return 2;
    }
    out << sarif;
  }

  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - started)
                           .count();
  std::cout << "tzgeo-analyze: " << result.files_scanned << " files, "
            << result.new_count() << " finding(s), " << result.baselined_count()
            << " baselined, " << result.stale_baseline.size() << " stale baseline entr"
            << (result.stale_baseline.size() == 1 ? "y" : "ies") << ", " << elapsed
            << " ms\n";
  return result.new_count() == 0 ? 0 : 1;
}
