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

/// The censored client's private view: public relays plus its bridges.
[[nodiscard]] Consensus augment_with_bridges(const Consensus& consensus,
                                             const BridgeSet& bridges) {
  std::vector<RelayDescriptor> relays = consensus.relays();
  for (const auto& bridge : bridges.bridges()) relays.push_back(bridge);
  return Consensus{std::move(relays)};
}

}  // namespace

void OnionTransport::register_health() { (void)transport_health(); }

OnionTransport::OnionTransport(const Consensus& consensus, util::SimClock& clock,
                               std::uint64_t seed, TransportOptions options)
    : consensus_(consensus),
      directory_(consensus),
      protocol_(consensus, directory_),
      clock_(clock),
      rng_(seed),
      seed_(seed),
      options_(options) {
  // A client session pins one entry guard for its lifetime.
  guard_id_ = CircuitBuilder{consensus_}.sample_guard(rng_);
}

OnionTransport::OnionTransport(const Consensus& consensus, const BridgeSet& bridges,
                               util::SimClock& clock, std::uint64_t seed,
                               TransportOptions options)
    : client_view_(augment_with_bridges(consensus, bridges)),
      consensus_(*client_view_),
      directory_(consensus_),
      protocol_(consensus_, directory_),
      clock_(clock),
      rng_(seed),
      seed_(seed),
      options_(options) {
  // A censored client enters through one of its configured bridges.
  guard_id_ = bridges.pick(rng_).id;
}

void OnionTransport::begin_epoch(std::uint64_t epoch) {
  // The epoch stream must be a pure function of (seed, epoch): split()
  // advances its parent, so always derive from a fresh parent instead of
  // the request rng (whose state depends on traffic history).
  util::Rng parent{seed_};
  rng_ = parent.split(epoch);
  connections_.clear();
  requests_on_circuit_.clear();
  epoch_requests_ = 0;
  if (options_.fault_injector != nullptr) options_.fault_injector->begin_epoch(epoch);
}

std::string OnionTransport::host(std::uint64_t service_key, ServiceHandler handler) {
  const HiddenServiceDescriptor descriptor = protocol_.host_service(service_key, 3, rng_);
  handlers_[descriptor.onion] = std::move(handler);
  return descriptor.onion;
}

const RendezvousConnection& OnionTransport::connection_for(const std::string& onion) {
  // Scheduled rotation: retire the circuit after its request budget.
  const auto existing = connections_.find(onion);
  if (existing != connections_.end()) {
    if (options_.requests_per_circuit == 0 ||
        requests_on_circuit_[onion] < options_.requests_per_circuit) {
      return existing->second;
    }
    connections_.erase(existing);
    ++stats_.circuit_rotations;
  }

  auto connection = protocol_.connect(onion, rng_, guard_id_);
  if (!connection) {
    throw TransportError("onion address not found: " + onion);
  }
  ++stats_.circuits_built;
  {
    const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.add(metrics.tor_circuits_built);
    registry.observe(metrics.tor_circuit_build_ms,
                     static_cast<std::uint64_t>(connection->setup_latency_ms));
  }
  requests_on_circuit_[onion] = 0;
  clock_.advance_millis(static_cast<std::int64_t>(connection->setup_latency_ms));
  stats_.total_latency_ms += connection->setup_latency_ms;
  return connections_.emplace(onion, std::move(*connection)).first->second;
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
    const RendezvousConnection& connection = connection_for(onion);
    const double latency = connection.round_trip_ms(consensus_) +
                           rng_.exponential(1.0 / std::max(options_.jitter_ms, 1e-9)) +
                           injected.extra_latency_ms;
    clock_.advance_millis(static_cast<std::int64_t>(latency));
    stats_.total_latency_ms += latency;
    ++stats_.requests;
    registry.add(metrics.tor_requests);
    ++requests_on_circuit_[onion];

    if (injected.drop_connection || rng_.bernoulli(options_.failure_probability)) {
      // Circuit dropped mid-request: tear down and retry on a fresh one.
      ++stats_.failures;
      registry.add(metrics.tor_request_failures);
      connections_.erase(onion);
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
