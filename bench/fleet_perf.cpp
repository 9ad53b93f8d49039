// Fleet scheduler throughput and checkpoint latency (google-benchmark).
//
// The fleet's pitch is "hundreds of forums under one scheduler", so this
// bench keeps two costs honest at 200 simulated forums:
//
//   1. BM_FleetRound/N — one full scheduling round (N parallel sweeps
//      over the global thread pool plus the serial ladder pass), with
//      checkpointing disabled.  The console's items_per_second column is
//      the fleet's polls/s; the perf gate pins the time per round.
//
//   2. BM_FleetCheckpointWrite/N — persisting an N-forum manifest frame
//      with the full durability path (temp file, fsync, rename, directory
//      fsync).  This is the latency every checkpointed round pays on top
//      of BM_FleetRound, and the dominant knob behind
//      FleetOptions::checkpoint_every_rounds.  The file lives on tmpfs
//      (/dev/shm) when available: every syscall of the durability path
//      still runs, but the number gates serialization + framing cost
//      instead of the host disk's fsync weather, which on shared CI
//      runners varies by an order of magnitude.
//
// Recorded numbers live in bench/baselines/fleet_perf.json; the
// perf_gate_fleet_* ctest pair (ctest -C perf) diffs a fresh report
// against that baseline via tools/tzgeo_bench_diff.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "forum/engine.hpp"
#include "forum/fleet.hpp"
#include "gbench_main.hpp"
#include "synth/dataset.hpp"
#include "timezone/civil.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

using namespace tzgeo;

namespace {

/// A deliberately small crowd: the bench measures scheduler overhead and
/// frame latency, not parser throughput, so each forum stays cheap.
[[nodiscard]] synth::Dataset bench_crowd(std::size_t index) {
  synth::DatasetOptions options;
  options.seed = 5000 + index;
  options.inactive_fraction = 0.0;
  options.active_volume_floor = 2000.0;
  options.trace.start = tz::CivilDate{2016, 3, 1};
  options.trace.end = tz::CivilDate{2016, 3, 4};
  const synth::RegionSpec spec{"Bench" + std::to_string(index), "Europe/Berlin", 2};
  return synth::make_region_dataset(spec, 2, options);
}

/// The server side, built once and shared by every benchmark run:
/// `count` independent forum engines.
struct FleetBenchEnv {
  std::vector<std::unique_ptr<forum::ForumEngine>> engines;

  explicit FleetBenchEnv(std::size_t count) {
    engines.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      forum::ForumConfig config;
      config.name = "Bench Forum " + std::to_string(i);
      config.policy = forum::TimestampPolicy::kHidden;
      engines.push_back(std::make_unique<forum::ForumEngine>(config, bench_crowd(i)));
    }
  }

  [[nodiscard]] std::vector<forum::FleetForumSpec> specs() const {
    std::vector<forum::FleetForumSpec> out;
    out.reserve(engines.size());
    for (std::size_t i = 0; i < engines.size(); ++i) {
      forum::FleetForumSpec spec;
      spec.name = "bench" + std::to_string(i);
      forum::ForumEngine* const engine = engines[i].get();
      spec.handler = [engine](const tor::Request& request, std::int64_t now) {
        return engine->handle(request, now);
      };
      spec.service_key = 1000 + i;
      out.push_back(std::move(spec));
    }
    return out;
  }
};

[[nodiscard]] const FleetBenchEnv& shared_env(std::size_t count) {
  static const FleetBenchEnv env{count};
  return env;
}

[[nodiscard]] forum::FleetOptions bench_options() {
  forum::FleetOptions options;
  options.start_time_seconds =
      tz::to_utc_seconds(tz::CivilDateTime{tz::CivilDate{2016, 3, 2}, 0, 0, 0});
  options.poll_interval_seconds = 1800;
  // Effectively endless: the benchmark never exhausts the campaign, so
  // every iteration is a plain mid-campaign round.
  options.duration_seconds = 1'000'000LL * 1800LL;
  options.seed = 31;
  return options;
}

void BM_FleetRound(benchmark::State& state) {
  const auto forums = static_cast<std::size_t>(state.range(0));
  const FleetBenchEnv& env = shared_env(forums);
  forum::Fleet fleet{env.specs(), bench_options()};
  for (auto _ : state) {
    fleet.poll_round();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));  // polls/s
}
BENCHMARK(BM_FleetRound)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_FleetCheckpointWrite(benchmark::State& state) {
  const auto forums = static_cast<std::size_t>(state.range(0));
  // A realistic frame: one global entry plus one ~8 KiB sub-state per
  // forum (a campaign's sweep state with a few hundred recorded posts).
  std::vector<util::ManifestEntry> entries;
  entries.push_back({"__fleet__", std::string(64, 'g')});
  util::Rng rng{7};
  for (std::size_t i = 0; i < forums; ++i) {
    std::string payload(8192, '\0');
    for (char& byte : payload) byte = static_cast<char>(rng() & 0xFF);
    entries.push_back({"bench" + std::to_string(i), std::move(payload)});
  }
  std::error_code shm_error;
  const bool have_shm = std::filesystem::is_directory("/dev/shm", shm_error);
  const std::filesystem::path dir =
      have_shm ? std::filesystem::path{"/dev/shm"} : std::filesystem::temp_directory_path();
  const std::string path = (dir / "tzgeo_fleet_perf.ckpt").string();
  for (auto _ : state) {
    util::write_manifest_checkpoint_file(path, entries, 1);
  }
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(forums * 8192 + 64));
}
BENCHMARK(BM_FleetCheckpointWrite)->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace

TZGEO_BENCHMARK_MAIN("fleet_perf")
