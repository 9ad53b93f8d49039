// Observability overhead microbenchmarks (google-benchmark).
//
// The obs layer's contract is that instrumentation is free enough to leave
// on everywhere: a counter increment is one relaxed fetch_add, a histogram
// observation three, and a span is two clock reads plus one mutex-guarded
// ring push per *stage* (not per row).  This bench keeps that honest at
// two levels:
//
//   1. Primitive costs: BM_CounterAdd / BM_HistogramObserve / BM_Span,
//      each also measured with the runtime kill switch off
//      (set_runtime_enabled(false)) — the quiesced path is a relaxed
//      load + branch, which is the in-binary stand-in for the
//      -DTZGEO_OBS_DISABLED compile-out floor (measuring the true
//      compile-out requires a second binary; rebuild with
//      cmake -DTZGEO_OBS_DISABLED=ON and rerun to compare).
//
//   2. Pipeline costs: the instrumented hot paths (batched placement and
//      CSV ingest) enabled vs. quiesced.  Acceptance: within noise — the
//      recorded numbers live in BENCH_obs.json.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "core/ingest.hpp"
#include "core/placement.hpp"
#include "gbench_main.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "synth/dataset.hpp"

using namespace tzgeo;

namespace {

/// CI trip-proof knob: with TZGEO_BENCH_INJECT_REGRESSION=1 the counter
/// benchmark burns a deliberate spin per iteration so the perf gate can
/// demonstrate that it actually fails on a regression (the workflow sets
/// the variable, asserts tzgeo_bench_diff exits non-zero, and unsets it).
[[nodiscard]] bool inject_regression() {
  static const bool injected = [] {
    const char* value = std::getenv("TZGEO_BENCH_INJECT_REGRESSION");
    return value != nullptr && value[0] != '\0' && value[0] != '0';
  }();
  return injected;
}

void maybe_injected_spin() {
  if (!inject_regression()) return;
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 400; ++i) sink = sink + 1;
}

obs::MetricId bench_counter() {
  static const obs::MetricId id =
      obs::MetricsRegistry::global().counter("tzgeo_bench_obs_counter_total");
  return id;
}

obs::MetricId bench_histogram() {
  static const obs::MetricId id =
      obs::MetricsRegistry::global().histogram("tzgeo_bench_obs_latency_us");
  return id;
}

/// RAII toggle so a benchmark can't leave the global registry quiesced.
class RuntimeToggle {
 public:
  explicit RuntimeToggle(bool enabled) {
    obs::MetricsRegistry::global().set_runtime_enabled(enabled);
  }
  ~RuntimeToggle() { obs::MetricsRegistry::global().set_runtime_enabled(true); }
  RuntimeToggle(const RuntimeToggle&) = delete;
  RuntimeToggle& operator=(const RuntimeToggle&) = delete;
};

// --- primitive costs -------------------------------------------------------

void BM_CounterAdd(benchmark::State& state) {
  RuntimeToggle toggle{state.range(0) != 0};
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::MetricId id = bench_counter();
  for (auto _ : state) {
    registry.add(id);
    maybe_injected_spin();
  }
}
BENCHMARK(BM_CounterAdd)->Arg(1)->Arg(0);  // 1 = enabled, 0 = quiesced

void BM_HistogramObserve(benchmark::State& state) {
  RuntimeToggle toggle{state.range(0) != 0};
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::MetricId id = bench_histogram();
  std::uint64_t value = 1;
  for (auto _ : state) {
    registry.observe(id, value);
    value = (value * 7 + 3) & 0x3FFF;  // scatter across buckets
  }
}
BENCHMARK(BM_HistogramObserve)->Arg(1)->Arg(0);

void BM_Span(benchmark::State& state) {
  // Spans are stage-granular; a private sink keeps the global ring clean.
  obs::TraceBuffer sink{1024};
  for (auto _ : state) {
    const obs::ScopedSpan span{"bench.span", &sink};
    benchmark::DoNotOptimize(span.id());
  }
}
BENCHMARK(BM_Span);

void BM_LogWrite(benchmark::State& state) {
  // Hot-path cost of a structured record: level gate + rate limiter +
  // stack formatting + ring copy.  Unlimited rate so every iteration
  // takes the full path; the ring wraps, which is the steady state.
  obs::Log& log = obs::Log::global();
  const obs::Log::SiteId site =
      log.site("bench.obs.log_write", obs::LogLevel::kInfo, /*max_per_second=*/0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    log.write(site, "bench record",
              {obs::field("iter", i), obs::field("stage", "bench")});
    ++i;
  }
  log.clear();
}
BENCHMARK(BM_LogWrite);

void BM_LogWriteSuppressed(benchmark::State& state) {
  // The common case for a hot site: the rate limiter has already shut
  // the window, so a write is one CAS-free load pair and a counter.
  obs::Log& log = obs::Log::global();
  const obs::Log::SiteId site =
      log.site("bench.obs.log_suppressed", obs::LogLevel::kInfo, /*max_per_second=*/1);
  for (auto _ : state) {
    log.write(site, "bench record", {obs::field("stage", "bench")});
  }
  log.clear();
}
BENCHMARK(BM_LogWriteSuppressed);

void BM_HealthBeat(benchmark::State& state) {
  obs::Health& health = obs::Health::global();
  const obs::Health::ComponentId id = health.component("bench.obs.heartbeat");
  for (auto _ : state) {
    health.beat(id);
  }
}
BENCHMARK(BM_HealthBeat);

// --- instrumented pipeline stages, enabled vs. quiesced --------------------

void BM_PlaceCrowdInstrumented(benchmark::State& state) {
  RuntimeToggle toggle{state.range(1) != 0};
  const bench::ReferenceProfiles reference = bench::build_reference_profiles(0.02, 1);
  std::vector<core::UserProfileEntry> users;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    users.push_back({static_cast<std::uint64_t>(i), 50,
                     reference.zones.zone_profile(static_cast<std::int32_t>(i % 24) - 11)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::place_crowd(users, reference.zones));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlaceCrowdInstrumented)
    ->Args({4096, 1})
    ->Args({4096, 0});  // {users, obs enabled?}

void BM_IngestInstrumented(benchmark::State& state) {
  RuntimeToggle toggle{state.range(1) != 0};
  synth::DatasetOptions options;
  options.seed = 9;
  const synth::Dataset dataset = synth::make_region_dataset(
      synth::table1_region("Germany"), static_cast<std::size_t>(state.range(0)), options);
  const std::string csv = core::trace_to_csv(bench::trace_of(dataset));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::trace_from_csv(csv));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(csv.size()));
}
BENCHMARK(BM_IngestInstrumented)->Args({200, 1})->Args({200, 0});  // {users, obs enabled?}

}  // namespace

TZGEO_BENCHMARK_MAIN("obs_overhead")
