// Request/response transport over simulated rendezvous circuits.
//
// The crawler speaks a minimal HTTP-like protocol to hidden services.  A
// transport owns the rendezvous connections, advances the simulated clock
// by the modelled latency of every round trip, and injects circuit
// failures so the retry path of the pipeline is exercised.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "tor/hidden_service.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace tzgeo::fault {
class FaultInjector;
}  // namespace tzgeo::fault

namespace tzgeo::tor {

/// A request to a hidden service.
struct Request {
  std::string method = "GET";
  std::string path = "/";
  std::string body;
};

/// A hidden service's reply.
struct Response {
  int status = 200;
  std::string body;
};

/// Server-side page handler: receives the request and the true UTC time of
/// arrival (seconds); the service applies its own clock offset internally.
using ServiceHandler = std::function<Response(const Request&, std::int64_t utc_seconds)>;

/// Thrown when a request keeps failing after all retries.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Transport tuning and fault injection.
struct TransportOptions {
  double failure_probability = 0.0;  ///< chance a round trip fails (circuit drop)
  int max_retries = 3;               ///< rebuild attempts per request
  double jitter_ms = 25.0;  ///< extra exponential latency jitter per trip  // tzgeo-lint: allow(magic-hours): milliseconds
  /// Rotate the rendezvous circuit after this many requests (Tor rotates
  /// circuits periodically; the entry guard stays pinned across rotations).
  std::size_t requests_per_circuit = 100;
  /// Politeness: when the service answers 429 (rate limited), back off and
  /// retry, up to max_rate_limit_retries times (0 disables and the 429 is
  /// returned to the caller).  Waits grow exponentially with decorrelated
  /// jitter (see next_backoff_seconds) from this base, capped per wait at
  /// rate_limit_backoff_cap_seconds — a fixed interval synchronizes every
  /// client onto the same retry schedule and never clears a real storm.
  std::int64_t rate_limit_backoff_seconds = 20;
  std::int64_t rate_limit_backoff_cap_seconds = 15 * 60;
  int max_rate_limit_retries = 200;
  /// Optional chaos hook, consulted once per round trip (outages, 429
  /// storms, drop bursts, body corruption, latency spikes).  Not owned;
  /// must outlive the transport.  nullptr = no injection.
  fault::FaultInjector* fault_injector = nullptr;
};

/// Traffic counters, exposed for tests and the pipeline report.
struct TransportStats {
  std::size_t requests = 0;
  std::size_t failures = 0;
  std::size_t circuits_built = 0;
  std::size_t circuit_rotations = 0;   ///< scheduled (non-failure) rebuilds
  std::size_t rate_limit_waits = 0;    ///< 429 backoffs taken
  double total_latency_ms = 0.0;
};

/// Client/service bridge over the simulated Tor network.
class OnionTransport {
 public:
  OnionTransport(const Consensus& consensus, util::SimClock& clock, std::uint64_t seed,
                 TransportOptions options = {});

  /// Censored-client mode (Background II-A): the client knows a set of
  /// unlisted bridges and pins one of them as its entry instead of a
  /// consensus guard.  The transport keeps a client-local view of the
  /// network that includes its bridges (they stay absent from the public
  /// consensus object passed in).
  OnionTransport(const Consensus& consensus, const BridgeSet& bridges, util::SimClock& clock,
                 std::uint64_t seed, TransportOptions options = {});

  /// Registers the transports' liveness component ("tor.transport") with
  /// obs::Health::global() now instead of at first fetch.  A caller that
  /// is about to fill the health table (a large forum::Fleet) calls it
  /// first, so this component is not the one refused.
  static void register_health();

  /// Hosts a service: runs the setup protocol of Section II-B and maps the
  /// resulting onion address to `handler`.  Returns the onion address.
  std::string host(std::uint64_t service_key, ServiceHandler handler);

  /// Round trip to a hidden service.  Advances the simulated clock by the
  /// modelled latency; throws TransportError on unknown address or when
  /// all retries fail.
  Response fetch(const std::string& onion, const Request& request);

  /// Starts a deterministic replay epoch: reseeds the per-request RNG as a
  /// pure function of (construction seed, epoch), retires every rendezvous
  /// connection (fresh circuits, entry guard stays pinned), and forwards
  /// the boundary to the fault injector.  The monitor opens one epoch per
  /// poll sweep, which is what makes a sweep — and therefore a
  /// crash/resume — bit-identical to an uninterrupted run: the sweep
  /// depends only on (seed, epoch, service state), not on how many
  /// requests earlier sweeps made.
  void begin_epoch(std::uint64_t epoch);

  /// Caps fetches within the current and every following epoch (0 =
  /// unlimited).  Exceeding the allowance throws TransportError; counted
  /// per fetch() call (retries ride the same unit), and begin_epoch
  /// resets the spent count.  The fleet scheduler uses this to divide a
  /// fleet-wide request budget fairly across forums each round.
  void set_epoch_request_allowance(std::size_t allowance) noexcept {
    epoch_allowance_ = allowance;
  }
  /// Fetches spent in the current epoch.
  [[nodiscard]] std::size_t epoch_requests() const noexcept { return epoch_requests_; }

  [[nodiscard]] const TransportStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Consensus& consensus() const noexcept { return consensus_; }
  [[nodiscard]] util::SimClock& clock() noexcept { return clock_; }
  /// This client session's pinned entry guard.
  [[nodiscard]] std::uint64_t guard_id() const noexcept { return guard_id_; }

 private:
  /// Establishes (or re-establishes) the rendezvous connection to `onion`.
  const RendezvousConnection& connection_for(const std::string& onion);

  /// In bridge mode, the client-local network view (consensus + bridges).
  std::optional<Consensus> client_view_;
  const Consensus& consensus_;
  HiddenServiceDirectory directory_;
  RendezvousProtocol protocol_;
  util::SimClock& clock_;
  util::Rng rng_;
  std::uint64_t seed_;  ///< construction seed, re-mixed by begin_epoch()
  TransportOptions options_;
  TransportStats stats_;
  std::size_t epoch_allowance_ = 0;  ///< 0 = unlimited
  std::size_t epoch_requests_ = 0;
  std::uint64_t guard_id_ = 0;
  std::map<std::string, ServiceHandler> handlers_;
  std::map<std::string, RendezvousConnection> connections_;
  std::map<std::string, std::size_t> requests_on_circuit_;
};

/// Next 429 wait: exponential backoff with decorrelated jitter (the
/// "decorrelated" scheme from the AWS architecture blog) — uniform in
/// [base, 3 x previous], capped at `cap`.  `previous` is 0 before the
/// first wait of a request.  Deterministic given the rng state; exposed
/// for unit tests.
[[nodiscard]] std::int64_t next_backoff_seconds(util::Rng& rng, std::int64_t base,
                                                std::int64_t cap,
                                                std::int64_t previous) noexcept;

}  // namespace tzgeo::tor
