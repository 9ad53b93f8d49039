#include <gtest/gtest.h>

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/pipeline_metrics.hpp"
#include "tor/transport.hpp"

namespace tzgeo::tor {
namespace {

TEST(OnionAddress, SixteenBase32Chars) {
  const std::string address = onion_address(42);
  EXPECT_EQ(address.size(), 16u);
  for (const char c : address) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '2' && c <= '7')) << c;
  }
}

TEST(OnionAddress, DeterministicAndKeyed) {
  EXPECT_EQ(onion_address(7), onion_address(7));
  EXPECT_NE(onion_address(7), onion_address(8));
}

TEST(OnionTransport, HostAndFetchRoundTrip) {
  util::SimClock clock{1'000'000};
  OnionTransport transport{clock, 10};
  const std::string onion = transport.host(555, [](const Request& request, std::int64_t now) {
    EXPECT_EQ(request.method, "GET");
    return Response{200, "path=" + request.path + " t=" + std::to_string(now)};
  });
  const Response response = transport.fetch(onion, Request{"GET", "/index", ""});
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("path=/index"), std::string::npos);
  EXPECT_EQ(transport.stats().requests, 1u);
  EXPECT_EQ(transport.stats().circuits_built, 1u);
}

TEST(OnionTransport, ClockAdvancesWithTraffic) {
  util::SimClock clock{0};
  OnionTransport transport{clock, 11};
  const std::string onion =
      transport.host(556, [](const Request&, std::int64_t) { return Response{200, "ok"}; });
  const auto before = clock.now_millis();
  (void)transport.fetch(onion, Request{});
  EXPECT_GT(clock.now_millis(), before);
}

TEST(OnionTransport, UnknownOnionThrows) {
  util::SimClock clock{0};
  OnionTransport transport{clock, 12};
  EXPECT_THROW(transport.fetch("aaaaaaaaaaaaaaaa", Request{}), TransportError);
}

TEST(OnionTransport, RetriesThroughFailures) {
  util::SimClock clock{0};
  TransportOptions options;
  options.failure_probability = 0.5;
  options.max_retries = 50;
  OnionTransport transport{clock, 13, options};
  const std::string onion =
      transport.host(557, [](const Request&, std::int64_t) { return Response{200, "ok"}; });
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(transport.fetch(onion, Request{}).status, 200);
  }
  EXPECT_GT(transport.stats().failures, 0u);
  EXPECT_GT(transport.stats().circuits_built, 1u);
}

TEST(OnionTransport, GivesUpAfterMaxRetries) {
  util::SimClock clock{0};
  TransportOptions options;
  options.failure_probability = 1.0;
  options.max_retries = 2;
  OnionTransport transport{clock, 14, options};
  const std::string onion =
      transport.host(558, [](const Request&, std::int64_t) { return Response{200, "ok"}; });
  EXPECT_THROW(transport.fetch(onion, Request{}), TransportError);
}

TEST(OnionTransport, CircuitsRotateOnSchedule) {
  util::SimClock clock{0};
  TransportOptions options;
  options.requests_per_circuit = 10;
  OnionTransport transport{clock, 42, options};
  const std::string onion =
      transport.host(701, [](const Request&, std::int64_t) { return Response{200, "ok"}; });
  for (int i = 0; i < 35; ++i) (void)transport.fetch(onion, Request{});
  EXPECT_EQ(transport.stats().circuit_rotations, 3u);
  EXPECT_EQ(transport.stats().circuits_built, 4u);
}

TEST(OnionTransport, RotationDisabledWithZeroBudget) {
  util::SimClock clock{0};
  TransportOptions options;
  options.requests_per_circuit = 0;
  OnionTransport transport{clock, 43, options};
  const std::string onion =
      transport.host(702, [](const Request&, std::int64_t) { return Response{200, "ok"}; });
  for (int i = 0; i < 50; ++i) (void)transport.fetch(onion, Request{});
  EXPECT_EQ(transport.stats().circuit_rotations, 0u);
  EXPECT_EQ(transport.stats().circuits_built, 1u);
}

TEST(OnionTransport, LinkModelChargesOneSetupPerCircuitAndOneTripPerFetch) {
  // Fault-free with k requests per circuit, N fetches build ceil(N / k)
  // links, and the latency ledger is exactly the drawn setups plus the
  // trips.  The replay restates the documented law: per (re)connection six
  // hops of 15 ms + Exp(mean 35 ms), a round trip of twice their sum and a
  // setup of 32/12 round trips; per trip the round trip plus
  // Exp(mean jitter_ms).
  constexpr std::size_t kPerCircuit = 7;
  constexpr std::size_t kFetches = 30;
  constexpr std::uint64_t kSeed = 44;
  TransportOptions options;
  options.requests_per_circuit = kPerCircuit;
  const auto handler = [](const Request&, std::int64_t) { return Response{200, "ok"}; };

  const obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::MetricId build_ms = obs::PipelineMetrics::get().tor_circuit_build_ms;
  const obs::HistogramSnapshot before = registry.histogram_value(build_ms);
  util::SimClock clock{0};
  OnionTransport transport{clock, kSeed, options};
  const std::string onion = transport.host(703, handler);
  for (std::size_t i = 0; i < kFetches; ++i) (void)transport.fetch(onion, Request{});
  const obs::HistogramSnapshot after = registry.histogram_value(build_ms);

  const TransportStats& stats = transport.stats();
  const std::size_t circuits = (kFetches + kPerCircuit - 1) / kPerCircuit;
  EXPECT_EQ(stats.requests, kFetches);
  EXPECT_EQ(stats.circuits_built, circuits);
  EXPECT_EQ(stats.circuit_rotations, circuits - 1);

  util::Rng rng{kSeed};
  double expected_total = 0.0;
  double round_trip = 0.0;
  std::uint64_t setup_ms_observed = 0;
  for (std::size_t i = 0; i < kFetches; ++i) {
    if (i % kPerCircuit == 0) {
      double path = 0.0;
      for (int hop = 0; hop < 6; ++hop) path += 15.0 + rng.exponential(1.0 / 35.0);
      round_trip = 2.0 * path;
      const double setup = 32.0 / 12.0 * round_trip;
      expected_total += setup;
      setup_ms_observed += static_cast<std::uint64_t>(setup);
    }
    expected_total += round_trip + rng.exponential(1.0 / options.jitter_ms);
  }
  EXPECT_DOUBLE_EQ(stats.total_latency_ms, expected_total);

  if (!obs::kDisabled) {
    EXPECT_EQ(after.count - before.count, stats.circuits_built);
    EXPECT_EQ(after.sum - before.sum, setup_ms_observed);
  }

  // The same (seed, epoch) replays the same link draws.
  const auto epoch_run = [&](std::int64_t& elapsed_ms) {
    util::SimClock epoch_clock{0};
    OnionTransport epoch_transport{epoch_clock, kSeed, options};
    const std::string epoch_onion = epoch_transport.host(703, handler);
    epoch_transport.begin_epoch(5);
    for (std::size_t i = 0; i < kFetches; ++i) {
      (void)epoch_transport.fetch(epoch_onion, Request{});
    }
    elapsed_ms = epoch_clock.now_millis();
    return epoch_transport.stats();
  };
  std::int64_t elapsed_a = 0;
  std::int64_t elapsed_b = 0;
  const TransportStats a = epoch_run(elapsed_a);
  const TransportStats b = epoch_run(elapsed_b);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.circuits_built, b.circuits_built);
  EXPECT_EQ(a.circuit_rotations, b.circuit_rotations);
  EXPECT_EQ(a.rate_limit_waits, b.rate_limit_waits);
  EXPECT_EQ(a.total_latency_ms, b.total_latency_ms);
  EXPECT_EQ(elapsed_a, elapsed_b);
  EXPECT_NE(a.total_latency_ms, stats.total_latency_ms);  // the epoch reseeded
}

TEST(SimClock, AdvanceAndSet) {
  util::SimClock clock{100};
  EXPECT_EQ(clock.now_seconds(), 100);
  clock.advance_seconds(5);
  EXPECT_EQ(clock.now_seconds(), 105);
  clock.advance_millis(500);
  EXPECT_EQ(clock.now_millis(), 105'500);
  clock.set_seconds(104);  // never moves backwards
  EXPECT_EQ(clock.now_seconds(), 105);
  clock.set_seconds(200);
  EXPECT_EQ(clock.now_seconds(), 200);
}

TEST(Backoff, StaysWithinBaseAndCap) {
  util::Rng rng{12};
  std::int64_t previous = 0;
  for (int i = 0; i < 500; ++i) {
    previous = next_backoff_seconds(rng, 20, 900, previous);
    EXPECT_GE(previous, 20);
    EXPECT_LE(previous, 900);
  }
}

TEST(Backoff, GrowthIsBoundedByTripleThePreviousWait) {
  util::Rng rng{13};
  for (int i = 0; i < 500; ++i) {
    const std::int64_t previous = rng.uniform_int(20, 900);
    const std::int64_t next = next_backoff_seconds(rng, 20, 900, previous);
    EXPECT_LE(next, std::min<std::int64_t>(900, previous * 3));
  }
}

TEST(Backoff, DeterministicGivenRngState) {
  util::Rng a{77};
  util::Rng b{77};
  std::int64_t wait_a = 0;
  std::int64_t wait_b = 0;
  for (int i = 0; i < 64; ++i) {
    wait_a = next_backoff_seconds(a, 20, 900, wait_a);
    wait_b = next_backoff_seconds(b, 20, 900, wait_b);
    EXPECT_EQ(wait_a, wait_b);
  }
}

TEST(Backoff, ZeroBaseDisablesAndTinyCapClamps) {
  util::Rng rng{14};
  EXPECT_EQ(next_backoff_seconds(rng, 0, 900, 100), 0);
  // A cap below the base degenerates to the base — never zero, never above.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(next_backoff_seconds(rng, 30, 10, 5), 30);
  }
}

TEST(OnionTransport, RateLimitBackoffsAreCountedAndAdvanceTheClock) {
  util::SimClock clock{0};
  TransportOptions options;
  options.rate_limit_backoff_seconds = 20;
  options.rate_limit_backoff_cap_seconds = 900;
  OnionTransport transport{clock, 21, options};
  int remaining_429s = 3;
  const std::string onion =
      transport.host(950, [&remaining_429s](const Request&, std::int64_t) {
        if (remaining_429s > 0) {
          --remaining_429s;
          return Response{429, "slow down"};
        }
        return Response{200, "ok"};
      });
  const std::int64_t before = clock.now_seconds();
  EXPECT_EQ(transport.fetch(onion, Request{}).status, 200);
  EXPECT_EQ(transport.stats().rate_limit_waits, 3u);
  // Three decorrelated-jitter waits, each in [base, cap].
  EXPECT_GE(clock.now_seconds() - before, 3 * 20);
  EXPECT_LE(clock.now_seconds() - before, 3 * 900 + 60);
}

TEST(OnionTransport, BeginEpochMakesTrafficAPureFunctionOfSeedAndEpoch) {
  // Two transports with the same construction seed but different request
  // histories must behave identically inside the same epoch — drops,
  // retries, and latency all replay.  This is the property the monitor's
  // crash/resume equivalence is built on.
  const auto handler = [](const Request&, std::int64_t) { return Response{200, "ok"}; };
  TransportOptions options;
  options.failure_probability = 0.3;
  options.max_retries = 40;

  util::SimClock clock_a{0};
  OnionTransport a{clock_a, 31, options};
  const std::string onion_a = a.host(960, handler);
  util::SimClock clock_b{0};
  OnionTransport b{clock_b, 31, options};
  const std::string onion_b = b.host(960, handler);

  // Divergent histories: `b` burns traffic in another epoch first.
  b.begin_epoch(3);
  for (int i = 0; i < 7; ++i) (void)b.fetch(onion_b, Request{});

  a.begin_epoch(9);
  b.begin_epoch(9);
  const std::size_t failures_a = a.stats().failures;
  const std::size_t failures_b = b.stats().failures;
  const std::int64_t start_a = clock_a.now_millis();
  const std::int64_t start_b = clock_b.now_millis();
  for (int i = 0; i < 25; ++i) {
    (void)a.fetch(onion_a, Request{});
    (void)b.fetch(onion_b, Request{});
  }
  EXPECT_EQ(a.stats().failures - failures_a, b.stats().failures - failures_b);
  EXPECT_EQ(clock_a.now_millis() - start_a, clock_b.now_millis() - start_b);
}

}  // namespace
}  // namespace tzgeo::tor
