// The ten line-oriented tzgeo-lint rules (magic-hours, rng-source,
// stdout-io, stderr-log, sscanf-parse, obs-clock, float-stats, simd-shim,
// catch-style, pragma-once) on the shared tokenizer: rules match against
// TokenizedSource::stripped lines, and `tzgeo-lint: allow(<rule>)`
// waivers come from the marker table the tokenizer already built.
// `tzgeo_analyze --lint-only` runs exactly these rules.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "tzgeo_analyze/tokenizer.hpp"
#include "tzgeo_analyze/types.hpp"

namespace tzgeo::analyze {

// Matching helpers, exported so the self-tests can exercise them directly.

/// True when `token` occurs in `line` with non-word characters (or line
/// edges) on both sides.  `token` itself may contain punctuation (e.g.
/// "std::cout"); only its boundary characters are checked.
[[nodiscard]] bool contains_token(std::string_view line, std::string_view token);

/// True when `prefix` occurs in `line` with a non-word character (or the
/// line start) on its LEFT only.  Vector-register families share prefixes
/// across many suffixed spellings (__m256 vs __m256d vs __m256i), so the
/// right side is deliberately unconstrained.
[[nodiscard]] bool contains_prefix_token(std::string_view line, std::string_view prefix);

/// True when `line` calls `name(` as a free token (so `snprintf(` does
/// not match `printf(`, and `uniform_int(` does not match `int(`).
[[nodiscard]] bool contains_call(std::string_view line, std::string_view name);

/// Finds a bare 23/24/25 integer literal (or 23.0/24.0/25.0) in the line.
/// Literals embedded in identifiers (x24), larger numbers (124, 245),
/// decimals (0.25), hex (0x24), and exponents (1e24) do not count.
[[nodiscard]] bool has_magic_hours_literal(std::string_view line);

/// Finds a `catch (...)` or a catch-by-value clause on the line.
[[nodiscard]] bool has_bad_catch(std::string_view line);

struct LintRule {
  std::string name;
  std::string message;
  std::function<bool(const std::string& path)> applies;  ///< repo-relative, generic seps
  std::function<bool(std::string_view stripped_line)> match;
};

[[nodiscard]] const std::vector<LintRule>& lint_rules();

/// Runs every applicable rule over `file` and appends findings.  The
/// pragma-once check (file-scoped, headers only) runs here too.
void run_lint_rules(const SourceFile& file, const TokenizedSource& tok,
                    std::vector<Finding>& findings);

}  // namespace tzgeo::analyze
