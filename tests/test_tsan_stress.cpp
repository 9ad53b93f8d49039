// ThreadSanitizer stress tests for the threaded subsystem (thread_pool,
// parallel placement, flat filter, bootstrap).  These deliberately create
// heavy cross-thread contention — pools churning under concurrent submit,
// overlapping parallel placements, exceptions racing normal completion —
// so TSan can observe the synchronization under the worst interleavings.
//
// They are labelled "tsan" and registered only when TZGEO_ENABLE_TSAN_TESTS
// is ON (implied by TZGEO_SANITIZE=thread) to keep the default test path
// fast; run them with `ctest --preset tsan` or `ctest -L tsan`.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bootstrap.hpp"
#include "core/geolocator.hpp"
#include "core/ingest.hpp"
#include "core/parallel.hpp"
#include "core/placement.hpp"
#include "core/placement_engine.hpp"
#include "core/profile.hpp"
#include "core/profile_builder.hpp"
#include "core/simd/simd.hpp"
#include "core/soa_crowd.hpp"
#include "core/thread_pool.hpp"
#include "core/timezone_profiles.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

/// A diurnal generic profile (active 8..23) for placement stress.
[[nodiscard]] TimeZoneProfiles stress_zones() {
  std::vector<double> bins(kProfileBins, 0.05);
  for (std::size_t h = 8; h < kProfileBins; ++h) {
    bins[h] = 1.0 + 0.25 * static_cast<double>(h % 7);
  }
  return TimeZoneProfiles{HourlyProfile::from_counts(bins)};
}

/// A crowd of `count` users with assorted peaked profiles.
[[nodiscard]] std::vector<UserProfileEntry> stress_crowd(std::size_t count,
                                                         std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<UserProfileEntry> users;
  users.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> bins(kProfileBins, 0.01);
    const auto peak = static_cast<std::size_t>(rng.uniform_int(0, 23));
    for (std::size_t w = 0; w < 8; ++w) {
      bins[(peak + w) % kProfileBins] += 1.0 + rng.uniform();
    }
    users.push_back(UserProfileEntry{i, 1, HourlyProfile::from_counts(bins)});
  }
  return users;
}

// --- thread_pool ----------------------------------------------------------

TEST(TsanStress, ContendedSubmitOnSharedPool) {
  // Many threads hammer one pool with jobs at once.  for_chunks serializes
  // job setup internally; every submission must still process each index
  // exactly once.
  ThreadPool pool{4};
  constexpr std::size_t kSubmitters = 8;
  constexpr std::size_t kJobsPerSubmitter = 50;
  constexpr std::size_t kItems = 512;

  std::atomic<std::uint64_t> processed{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &processed] {
      for (std::size_t j = 0; j < kJobsPerSubmitter; ++j) {
        pool.for_chunks(kItems, 0, [&processed](std::size_t begin, std::size_t end) {
          processed.fetch_add(end - begin, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(processed.load(), kSubmitters * kJobsPerSubmitter * kItems);
}

TEST(TsanStress, PoolChurnConstructDestroyUnderLoad) {
  // Construct, immediately load, and destroy pools in a tight loop from
  // several threads: shutdown must not race in-flight drains.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 40;

  std::vector<std::thread> churners;
  churners.reserve(kThreads);
  std::atomic<std::uint64_t> total{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    churners.emplace_back([&total] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        ThreadPool pool{2};
        pool.for_chunks(97, 0, [&total](std::size_t begin, std::size_t end) {
          total.fetch_add(end - begin, std::memory_order_relaxed);
        });
      }  // ~ThreadPool: workers must quiesce cleanly every round
    });
  }
  for (auto& t : churners) t.join();
  EXPECT_EQ(total.load(), kThreads * kRounds * 97u);
}

TEST(TsanStress, ExceptionUnderLoadPropagatesAndPoolSurvives) {
  // One chunk throws while others are mid-flight; the pool must rethrow
  // exactly one error per job and stay usable for subsequent jobs.
  ThreadPool pool{4};
  for (int round = 0; round < 25; ++round) {
    EXPECT_THROW(
        pool.for_chunks(256, 0,
                        [](std::size_t begin, std::size_t) {
                          if (begin == 0) throw std::runtime_error("stress failure");
                        }),
        std::runtime_error);

    // The pool still runs clean jobs after an exceptional one.
    std::atomic<std::size_t> ok{0};
    pool.for_chunks(64, 0, [&ok](std::size_t begin, std::size_t end) {
      ok.fetch_add(end - begin, std::memory_order_relaxed);
    });
    EXPECT_EQ(ok.load(), 64u);
  }
}

TEST(TsanStress, ConcurrentExceptionsOnSharedPool) {
  // Several submitters throw concurrently; each must get an exception from
  // its own job and never one from a neighbour's generation.
  ThreadPool pool{4};
  constexpr std::size_t kSubmitters = 6;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  std::atomic<std::size_t> caught{0};
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &caught] {
      for (int j = 0; j < 20; ++j) {
        try {
          pool.for_chunks(128, 0, [](std::size_t begin, std::size_t) {
            if (begin == 0) throw std::invalid_argument("per-job failure");
          });
        } catch (const std::invalid_argument&) {
          caught.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(caught.load(), kSubmitters * 20u);
}

// --- parallel placement ---------------------------------------------------

TEST(TsanStress, ConcurrentPlaceCrowdParallelMatchesSerial) {
  // Overlapping place_crowd_parallel calls on the shared global pool must
  // neither race nor perturb each other's results.
  const TimeZoneProfiles zones = stress_zones();
  const std::vector<UserProfileEntry> crowd = stress_crowd(600, 7);
  const PlacementResult serial = place_crowd(crowd, zones);

  constexpr std::size_t kCallers = 6;
  std::vector<PlacementResult> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&zones, &crowd, &results, c] {
      results[c] = place_crowd_parallel(crowd, zones);
    });
  }
  for (auto& t : callers) t.join();

  for (const PlacementResult& parallel : results) {
    ASSERT_EQ(parallel.users.size(), serial.users.size());
    for (std::size_t i = 0; i < serial.users.size(); ++i) {
      EXPECT_EQ(parallel.users[i].zone_hours, serial.users[i].zone_hours);
      EXPECT_EQ(parallel.users[i].distance, serial.users[i].distance);
    }
  }
}

TEST(TsanStress, ConcurrentGeolocateOnSharedPool) {
  // Overlapping geolocate_crowd calls: each polish owns and compacts its
  // own SoA crowd while the rounds of every caller share the global pool.
  const TimeZoneProfiles zones = stress_zones();
  std::vector<UserProfileEntry> crowd = stress_crowd(900, 17);
  util::Rng rng{18};
  for (std::size_t i = 0; i < crowd.size(); i += 4) {  // a quarter near-flat
    std::vector<double> bins(kProfileBins, 1.0);
    for (double& b : bins) b += rng.uniform(0.0, 0.8);
    crowd[i].profile = HourlyProfile::from_counts(bins);
  }
  const GeolocationResult reference = geolocate_crowd(crowd, zones);
  ASSERT_GT(reference.users_filtered_flat, 0u);

  constexpr std::size_t kCallers = 4;
  std::vector<GeolocationResult> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&zones, &crowd, &results, c] {
      results[c] = geolocate_crowd(crowd, zones);
    });
  }
  for (auto& t : callers) t.join();

  for (const GeolocationResult& result : results) {
    EXPECT_EQ(result.users_filtered_flat, reference.users_filtered_flat);
    ASSERT_EQ(result.placement.users.size(), reference.placement.users.size());
    for (std::size_t i = 0; i < reference.placement.users.size(); ++i) {
      EXPECT_EQ(result.placement.users[i].user, reference.placement.users[i].user);
      EXPECT_EQ(result.placement.users[i].zone_hours, reference.placement.users[i].zone_hours);
      EXPECT_EQ(result.placement.users[i].distance, reference.placement.users[i].distance);
    }
    EXPECT_EQ(result.placement.counts, reference.placement.counts);
  }
}

TEST(TsanStress, ConcurrentShardedSoaPlacementOnSharedCrowd) {
  // Several threads shard the SAME prepared SoA crowd through place_soa
  // while another flips the dispatch path: the kernels read shared
  // immutable planes and the path swap is a pair of relaxed atomics, so
  // every interleaving must be race-free and every shard must land its
  // slots exactly once.
  const TimeZoneProfiles zones = stress_zones();
  const PlacementEngine engine{zones, PlacementMetric::kCircularEmd};
  const std::vector<UserProfileEntry> crowd = stress_crowd(800, 31);
  SoaCrowd soa;
  soa.build(crowd, engine.soa_planes());

  constexpr std::size_t kRounds = 12;
  constexpr std::size_t kShards = 4;
  std::atomic<bool> stop{false};
  std::thread flipper{[&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const simd::Path path :
           {simd::Path::kScalar, simd::Path::kAvx2, simd::Path::kAvx512, simd::Path::kNeon}) {
        (void)simd::set_path(path);
      }
    }
  }};
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<UserPlacement> out(soa.size());
    std::vector<std::thread> shards;
    shards.reserve(kShards);
    const std::size_t per = (soa.groups() + kShards - 1) / kShards;
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::size_t begin = std::min(s * per, soa.groups());
      const std::size_t end = std::min(begin + per, soa.groups());
      shards.emplace_back([&engine, &soa, &out, begin, end] {
        PlacementEngine::SoaStats counters;
        engine.place_soa(soa, begin, end, out.data(), counters);
      });
    }
    for (auto& t : shards) t.join();
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_GE(out[i].zone_hours, kMinZone);
      EXPECT_LE(out[i].zone_hours, kMaxZone);
    }
  }
  stop.store(true, std::memory_order_release);
  flipper.join();
}

TEST(TsanStress, SharedEngineConcurrentReaders) {
  // place() is const and allocation-free; many threads sharing one engine
  // must be race-free by construction.
  const TimeZoneProfiles zones = stress_zones();
  const PlacementEngine engine{zones, PlacementMetric::kCircularEmd};
  const std::vector<UserProfileEntry> crowd = stress_crowd(200, 11);

  constexpr std::size_t kReaders = 8;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  std::atomic<std::size_t> placed{0};
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&engine, &crowd, &placed] {
      for (const auto& entry : crowd) {
        const UserPlacement placement = engine.place(entry.user, entry.profile);
        if (placement.zone_hours >= kMinZone && placement.zone_hours <= kMaxZone) {
          placed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(placed.load(), kReaders * crowd.size());
}

// --- parallel ingest ------------------------------------------------------

TEST(TsanStress, ConcurrentParallelIngestOnDedicatedPools) {
  // Overlapping trace_from_csv calls, each parsing on its own pool while
  // others run: chunk outcomes, merge, and counters must never race, and
  // every caller must see the same bytes.
  std::string csv = "author,utc_time\n";
  for (int i = 0; i < 20000; ++i) {
    csv += "user" + std::to_string(i % 97) + "," + std::to_string(1451606400 + i) + "\n";
  }
  IngestOptions options;
  options.threads = 3;
  options.min_parallel_bytes = 1;
  const auto expected = trace_to_csv(trace_from_csv(csv, options).trace);

  constexpr std::size_t kCallers = 6;
  std::vector<std::string> outputs(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&csv, &options, &outputs, c] {
      outputs[c] = trace_to_csv(trace_from_csv(csv, options).trace);
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& output : outputs) {
    EXPECT_EQ(output, expected);
  }
}

// --- bootstrap ------------------------------------------------------------

TEST(TsanStress, BootstrapParallelResamplingIsRaceFree) {
  // bootstrap_geolocation fans resample refits across the pool; run it
  // with enough resamples to guarantee multi-chunk scheduling.
  const TimeZoneProfiles zones = stress_zones();
  const std::vector<UserProfileEntry> crowd = stress_crowd(120, 23);

  BootstrapOptions bootstrap;
  bootstrap.resamples = 64;
  bootstrap.seed = 99;
  const BootstrapResult result = bootstrap_geolocation(crowd, zones, {}, bootstrap);
  EXPECT_EQ(result.resamples, bootstrap.resamples);
}

// --- observability --------------------------------------------------------

TEST(TsanStress, MetricsUpdatesRaceSnapshotsCleanly) {
  // Writers hammer a counter, a gauge, and a histogram while readers take
  // full snapshots and render both exporters.  Relaxed atomics mean the
  // snapshot is not a linearizable cut, but every access must be data-race
  // free and the final totals exact once writers join.
  obs::MetricsRegistry registry;
  const obs::MetricId counter = registry.counter("tzgeo_stress_total");
  const obs::MetricId gauge = registry.gauge("tzgeo_stress_backlog");
  const obs::MetricId hist = registry.histogram("tzgeo_stress_us");

  constexpr std::size_t kWriters = 6;
  constexpr std::uint64_t kOpsPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::thread reader{[&registry, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto samples = registry.snapshot();
      EXPECT_EQ(samples.size(), 3u);
      (void)registry.prometheus();
      (void)registry.to_json();
    }
  }};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, counter, gauge, hist, w] {
      for (std::uint64_t i = 0; i < kOpsPerWriter; ++i) {
        registry.add(counter);
        registry.set(gauge, static_cast<std::int64_t>(i));
        registry.observe(hist, (w * kOpsPerWriter + i) % 3000);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(registry.counter_value(counter), kWriters * kOpsPerWriter);
  EXPECT_EQ(registry.histogram_value(hist).count, kWriters * kOpsPerWriter);
}

TEST(TsanStress, SpanRecordingRacesSnapshotsCleanly) {
  // Many threads open nested spans into one shared ring while another
  // thread snapshots and exports it; counts must add up afterwards.
  obs::TraceBuffer sink{128};
  constexpr std::size_t kThreads = 6;
  constexpr std::uint64_t kSpansPerThread = 2000;
  std::atomic<bool> stop{false};
  std::thread reader{[&sink, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)sink.snapshot();
      (void)sink.to_chrome_trace();
    }
  }};
  std::vector<std::thread> tracers;
  tracers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    tracers.emplace_back([&sink] {
      for (std::uint64_t i = 0; i < kSpansPerThread; ++i) {
        const obs::ScopedSpan outer{"stress", &sink};
        const obs::ScopedSpan inner{"stress.inner", &sink};
      }
    });
  }
  for (auto& t : tracers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(sink.recorded(), 2 * kThreads * kSpansPerThread);
  EXPECT_EQ(sink.snapshot().size(), sink.capacity());
}

}  // namespace
}  // namespace tzgeo::core
