// Fleet monitor: hundreds of forums under one scheduler.
//
// The paper's monitor mode (Section VII) watches one forum; a real
// campaign watches hundreds of onion boards that churn, vanish, and
// rate-limit independently.  forum::Fleet multiplexes N forum campaigns
// over one core::ThreadPool and one fleet-wide request budget:
//
//  * Staggered deterministic schedule.  Forum i's poll n is pinned to
//    t0 + stagger(i) + n * interval with stagger(i) = interval * i / N,
//    so the fleet's load spreads across each interval instead of
//    spiking.  Every forum runs its own simulated clock and transport
//    whose RNG epoch is the scheduled second — randomness is a pure
//    function of (fleet seed, forum name, poll), never of sibling
//    traffic or worker interleaving, which is what keeps a parallel
//    fleet bit-reproducible and kill/resume-identical.
//
//  * Shared request budget with per-forum fairness.  A per-round fetch
//    budget is divided evenly (remainder to the lowest indices) among
//    the forums polling that round and enforced by the transport's
//    epoch allowance; a forum that exhausts its share degrades through
//    the normal sweep ladder instead of starving its siblings.
//
//  * Two-level degradation ladder.  Inside a forum, the sweep ladder
//    from PR 5 (thread strikes, quarantine, jittered re-probes).  At
//    fleet level, a forum whose sweeps keep failing is quarantined
//    (skipped, re-probed once per cooldown window at a jittered phase);
//    a forum whose re-probes keep failing is parked for the campaign.
//    Parking is not fatal: the campaign completes with a partial-fleet
//    verdict.
//
//  * One atomic fleet checkpoint.  All per-forum sub-states ride in a
//    single manifest frame (util::write_manifest_checkpoint_file), each
//    with its own CRC: a corrupt sub-entry parks that one forum on
//    resume, the rest of the fleet resumes byte-identically.
//
// DESIGN.md §14 documents the architecture and the stagger/budget math.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "forum/manifest.hpp"
#include "forum/sweep.hpp"
#include "tor/transport.hpp"

namespace tzgeo::fault {
struct FaultPlan;
class FaultInjector;
}  // namespace tzgeo::fault

namespace tzgeo::forum {

/// One forum campaign in the fleet.
struct FleetForumSpec {
  /// Stable identity: keys the checkpoint sub-entry, the health
  /// component, and the jitter phases.  Must be unique within the fleet.
  std::string name;
  /// The simulated service behind this forum's onion address.
  tor::ServiceHandler handler;
  /// Hidden-service key the handler is hosted under.
  std::uint64_t service_key = 0;
  /// Optional per-forum chaos schedule; not owned, must outlive the
  /// fleet.  nullptr = no injection.
  const fault::FaultPlan* fault_plan = nullptr;
};

/// Fleet lifecycle state of one forum.
enum class ForumStatus : std::uint8_t {
  kActive,       ///< polling on schedule
  kQuarantined,  ///< skipped, re-probed once per cooldown window
  kParked,       ///< out for the rest of the campaign (never fatal)
};

[[nodiscard]] const char* to_string(ForumStatus status) noexcept;

/// Fleet schedule, budget, ladder, and checkpoint wiring.
struct FleetOptions {
  /// Campaign origin on the simulated timeline (UTC seconds); forum i
  /// starts at start + stagger(i).
  std::int64_t start_time_seconds = 0;
  std::int64_t poll_interval_seconds = 1800;
  std::int64_t duration_seconds = 30 * 86400;
  /// Fleet seed: drives per-forum transport seeds and every jitter phase.
  std::uint64_t seed = 0;

  /// Per-forum page cap (forwarded to the sweep ladder).
  std::size_t max_pages_per_poll = 50'000;
  /// Fleet-wide fetch budget per round, divided fairly among the forums
  /// polling that round (0 = unlimited).  Enforced via
  /// tor::OnionTransport::set_epoch_request_allowance.
  std::size_t request_budget_per_round = 0;

  /// Fleet checkpoint file; empty disables checkpointing.  Removed on
  /// successful completion.
  std::string checkpoint_path;
  /// Persist the fleet every N-th round (1 = after every round).
  std::size_t checkpoint_every_rounds = 1;

  /// Per-forum sweep ladder (see MonitorOptions for semantics).
  std::size_t thread_quarantine_after = 3;
  std::size_t thread_quarantine_cooldown_polls = 8;

  /// Fleet ladder: quarantine a forum after this many consecutive failed
  /// sweeps (0 disables)...
  std::size_t forum_quarantine_after = 4;
  /// ...re-probe each quarantined forum once per N-round cooldown window
  /// at a jittered per-forum phase (0 = never)...
  std::size_t forum_quarantine_cooldown_rounds = 8;
  /// ...and park it for the campaign after this many consecutive failed
  /// re-probes (0 = never park).
  std::size_t forum_park_after = 3;

  /// Base transport tuning; the per-forum fault injector (from
  /// FleetForumSpec::fault_plan) overrides the fault_injector field.
  tor::TransportOptions transport;

  /// Chaos hook: throw CrawlError{kHalted} after this many rounds *in
  /// this process run* (0 disables), after the round's cadence-driven
  /// checkpoint — exactly what kill -9 after that round leaves.
  std::size_t halt_after_rounds = 0;

  /// Called after every round, serially in spec order, with each forum's
  /// newly committed records (empty vectors are skipped).
  std::function<void(std::size_t forum_index, const std::vector<ScrapeRecord>&)> on_commit;
  /// Per-forum caller state rides inside the forum's checkpoint
  /// sub-entry, committing atomically with the fleet.
  std::function<std::string(std::size_t forum_index)> checkpoint_extra;
  std::function<void(std::size_t forum_index, std::string_view)> restore_extra;
};

/// Per-forum outcome in the fleet verdict.
struct FleetForumOutcome {
  std::string name;
  std::string onion;
  ForumStatus status = ForumStatus::kActive;
  ScrapeDump dump;
  ScrapeManifest manifest;
  std::size_t rounds_polled = 0;
  std::size_t rounds_skipped = 0;
  std::size_t parked_at_round = 0;  ///< meaningful when status == kParked
  std::string park_reason;
};

/// The partial-fleet verdict of a completed campaign.
struct FleetResult {
  std::vector<FleetForumOutcome> forums;  ///< in spec order
  std::size_t rounds = 0;
  std::size_t active = 0;
  std::size_t quarantined = 0;
  std::size_t parked = 0;

  /// True when every forum stayed in the campaign to the end.
  [[nodiscard]] bool full_fleet() const noexcept { return parked == 0 && quarantined == 0; }
};

/// Deterministic fair division of `total` among `claimants`: every
/// claimant gets total/claimants, the first total%claimants get one
/// more.  Returns 0 for index >= claimants.
[[nodiscard]] std::size_t fair_share(std::size_t total, std::size_t claimants,
                                     std::size_t index) noexcept;

/// The fleet scheduler.  Construct, then either run() the whole campaign
/// or drive it round by round (poll_round / done / finish) — the
/// dashboard uses the stepwise form.  Every FleetForumSpec::fault_plan
/// must outlive the Fleet.
class Fleet {
 public:
  Fleet(std::vector<FleetForumSpec> specs, FleetOptions options);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Runs the remaining campaign and returns the verdict.  Throws
  /// std::invalid_argument on bad options, util::CheckpointError when an
  /// existing fleet checkpoint's directory or global entry is unusable or
  /// for a different campaign (a corrupt per-forum sub-entry only parks
  /// that forum), and CrawlError{kHalted} from the halt_after_rounds
  /// chaos hook.
  [[nodiscard]] FleetResult run();

  /// One scheduling round: every due forum polls (in parallel over the
  /// global thread pool), the fleet ladder advances, and the cadence
  /// checkpoint is written.  Precondition: !done().
  void poll_round();

  [[nodiscard]] bool done() const noexcept { return next_round_ >= rounds_total_; }
  [[nodiscard]] std::size_t rounds_total() const noexcept { return rounds_total_; }
  [[nodiscard]] std::size_t next_round() const noexcept { return next_round_; }

  /// Completes the campaign after the last round: removes the
  /// checkpoint and assembles the verdict (with manifests).
  [[nodiscard]] FleetResult finish();

  /// Lightweight per-forum view for dashboards (no dump copies).
  struct ForumSnapshot {
    std::string name;
    ForumStatus status = ForumStatus::kActive;
    std::size_t polls = 0;
    std::size_t polls_failed = 0;
    std::size_t records = 0;
    std::size_t rounds_skipped = 0;
    std::string park_reason;
  };
  [[nodiscard]] std::vector<ForumSnapshot> snapshot() const;

 private:
  struct Forum;

  void resume_from_checkpoint();
  void write_fleet_checkpoint();
  void refresh_gauges() const;
  [[nodiscard]] bool forum_due(const Forum& forum, std::size_t round) const noexcept;

  FleetOptions options_;
  std::vector<std::unique_ptr<Forum>> forums_;
  std::size_t rounds_total_ = 0;
  std::size_t next_round_ = 0;
  std::size_t rounds_this_run_ = 0;
};

}  // namespace tzgeo::forum
