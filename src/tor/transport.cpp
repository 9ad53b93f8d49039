#include "tor/transport.hpp"

#include <algorithm>
#include <utility>

#include "fault/injector.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/pipeline_metrics.hpp"

namespace tzgeo::tor {

namespace {

/// Transport liveness: one fetch (including retries and simulated
/// backoff) should never sit silent for a minute of host time.
obs::Health::ComponentId transport_health() {
  static const obs::Health::ComponentId id =
      obs::Health::global().component("tor.transport", 60'000'000'000ull);
  return id;
}

obs::Log::SiteId retries_exhausted_site() {
  static const obs::Log::SiteId id = obs::Log::global().site(
      "tor.transport.retries_exhausted", obs::LogLevel::kError);
  return id;
}

// The link model.  One hop forwards in a 15 ms floor (propagation and
// onion crypto) plus an exponential queueing tail of mean 35 ms.
constexpr double kHopFloorMs = 15.0;
constexpr double kHopTailMeanMs = 35.0;
// A rendezvous path joins a three-hop client circuit and a three-hop
// service circuit.
constexpr int kRendezvousHops = 6;
// Setup telescopes both circuits (2 x (3 + 2 + 1) hop latencies each),
// crosses an introduction point and back (2) and sends the first half
// trip (6): 32 hop latencies against the 12 of one round trip.
constexpr double kSetupPerRoundTrip = 32.0 / 12.0;

}  // namespace

std::string onion_address(std::uint64_t service_key) {
  // v2 onion addresses are 16 base32 characters (80 bits of key hash).
  // We derive 80 bits from two splitmix64 steps over the key.
  static constexpr char kBase32[] = "abcdefghijklmnopqrstuvwxyz234567";
  std::uint64_t state = service_key;
  const std::uint64_t lo = util::splitmix64(state);
  const std::uint64_t hi = util::splitmix64(state);
  std::string address;
  address.reserve(16);
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = (i < 12) ? lo : hi;
    const int shift = (i % 12) * 5 % 60;
    address.push_back(kBase32[(word >> shift) & 0x1f]);
  }
  return address;
}

void OnionTransport::register_health() { (void)transport_health(); }

OnionTransport::OnionTransport(util::SimClock& clock, std::uint64_t seed,
                               TransportOptions options)
    : clock_(clock), rng_(seed), seed_(seed), options_(options) {}

void OnionTransport::begin_epoch(std::uint64_t epoch) {
  // The epoch stream must be a pure function of (seed, epoch): split()
  // advances its parent, so always derive from a fresh parent instead of
  // the request rng (whose state depends on traffic history).
  util::Rng parent{seed_};
  rng_ = parent.split(epoch);
  links_.clear();
  epoch_requests_ = 0;
  if (options_.fault_injector != nullptr) options_.fault_injector->begin_epoch(epoch);
}

std::string OnionTransport::host(std::uint64_t service_key, ServiceHandler handler) {
  std::string onion = onion_address(service_key);
  handlers_[onion] = std::move(handler);
  return onion;
}

OnionTransport::Link& OnionTransport::link_for(const std::string& onion) {
  // Scheduled rotation: retire the circuit after its request budget.
  const auto existing = links_.find(onion);
  if (existing != links_.end()) {
    if (options_.requests_per_circuit == 0 ||
        existing->second.requests < options_.requests_per_circuit) {
      return existing->second;
    }
    ++stats_.circuit_rotations;
  }

  double path_ms = 0.0;
  for (int hop = 0; hop < kRendezvousHops; ++hop) {
    path_ms += kHopFloorMs + rng_.exponential(1.0 / kHopTailMeanMs);
  }
  const double round_trip_ms = 2.0 * path_ms;
  const double setup_ms = kSetupPerRoundTrip * round_trip_ms;
  ++stats_.circuits_built;
  {
    const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.add(metrics.tor_circuits_built);
    registry.observe(metrics.tor_circuit_build_ms, static_cast<std::uint64_t>(setup_ms));
  }
  clock_.advance_millis(static_cast<std::int64_t>(setup_ms));
  stats_.total_latency_ms += setup_ms;
  return links_[onion] = Link{round_trip_ms, 0};
}

Response OnionTransport::fetch(const std::string& onion, const Request& request) {
  const auto handler_it = handlers_.find(onion);
  if (handler_it == handlers_.end()) {
    throw TransportError("onion address not found: " + onion);
  }
  // Shared-budget enforcement (the fleet hands each forum a fair share of
  // the round's request budget): counted per fetch, not per retry, so the
  // allowance is a pure function of crawl behavior, never of luck.
  if (epoch_allowance_ > 0 && epoch_requests_ >= epoch_allowance_) {
    throw TransportError("epoch request allowance exhausted (" +
                         std::to_string(epoch_allowance_) + " fetches this epoch)");
  }
  ++epoch_requests_;

  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::Health::WorkScope fetch_work(obs::Health::global(), transport_health());

  int rate_limit_retries = 0;
  std::int64_t last_wait_seconds = 0;  // decorrelated-jitter backoff state
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) registry.add(metrics.tor_retries);
    fault::FaultInjector::PreRequest injected;
    if (options_.fault_injector != nullptr) {
      injected = options_.fault_injector->before_request(clock_.now_seconds());
    }
    Link& link = link_for(onion);
    const double latency = link.round_trip_ms +
                           rng_.exponential(1.0 / std::max(options_.jitter_ms, 1e-9)) +
                           injected.extra_latency_ms;
    clock_.advance_millis(static_cast<std::int64_t>(latency));
    stats_.total_latency_ms += latency;
    ++stats_.requests;
    registry.add(metrics.tor_requests);
    ++link.requests;

    if (injected.drop_connection || rng_.bernoulli(options_.failure_probability)) {
      // Circuit dropped mid-request: tear down and retry on a fresh one.
      ++stats_.failures;
      registry.add(metrics.tor_request_failures);
      links_.erase(onion);
      continue;
    }
    Response response;
    if (injected.force_rate_limit) {
      // Storm window: the throttle fires upstream of the service, so the
      // handler never sees the request.
      response.status = 429;
    } else {
      response = handler_it->second(request, clock_.now_seconds());
      if (options_.fault_injector != nullptr) {
        options_.fault_injector->mutate_body(clock_.now_seconds(), response.body);
      }
    }
    if (response.status == 429 && options_.rate_limit_backoff_seconds > 0 &&
        rate_limit_retries < options_.max_rate_limit_retries) {
      // Throttled: be polite, wait out the window, and do not burn a
      // circuit-failure retry on it.
      ++rate_limit_retries;
      ++stats_.rate_limit_waits;
      registry.add(metrics.tor_rate_limit_waits);
      last_wait_seconds =
          next_backoff_seconds(rng_, options_.rate_limit_backoff_seconds,
                               options_.rate_limit_backoff_cap_seconds, last_wait_seconds);
      clock_.advance_seconds(last_wait_seconds);
      --attempt;
      continue;
    }
    obs::Health::global().beat(transport_health());
    return response;
  }
  obs::Log::global().write(retries_exhausted_site(), "request failed after retries",
                           {obs::field("onion", onion), obs::field("path", request.path),
                            obs::field("attempts", options_.max_retries + 1)});
  throw TransportError("request to " + onion + request.path + " failed after retries");
}

std::int64_t next_backoff_seconds(util::Rng& rng, std::int64_t base, std::int64_t cap,
                                  std::int64_t previous) noexcept {
  if (base <= 0) return 0;
  if (cap < base) cap = base;
  // Decorrelated jitter: uniform in [base, 3 * previous], seeded with
  // previous = base on the first wait.  Desynchronizes retrying clients
  // while still growing the expected wait geometrically.
  const std::int64_t prev = std::clamp(previous, base, cap);
  const std::int64_t hi = prev > cap / 3 ? cap : prev * 3;
  return rng.uniform_int(base, std::max(base, hi));
}

}  // namespace tzgeo::tor
