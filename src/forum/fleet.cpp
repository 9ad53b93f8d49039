#include "forum/fleet.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/thread_pool.hpp"
#include "fault/injector.hpp"
#include "forum/error.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/pipeline_metrics.hpp"
#include "obs/stopwatch.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace tzgeo::forum {

namespace {

/// Fleet checkpoint payload format generation (the TZCM manifest framing
/// carries its own version on top; bump this when either the global entry
/// or the per-forum payload layout changes).
constexpr std::uint32_t kFleetCheckpointVersion = 1;

/// The manifest key of the fleet-global entry (schedule + roster); forum
/// names key everything else.  The leading underscores keep it out of any
/// plausible forum-name space.
constexpr const char* kFleetEntryKey = "__fleet__";

/// Salt folded into a forum's jitter key for its *fleet-level* re-probe
/// phase, so it decorrelates from the thread-level phases inside the same
/// forum (both are derived from the same per-forum key material).
constexpr std::uint64_t kForumReprobeSalt = 0x666c656574ull;  // "fleet"

/// Fleet scheduler liveness: one heartbeat per round; the threshold must
/// cover a whole round of parallel sweeps under simulated latency.
obs::Health::ComponentId fleet_health() {
  static const obs::Health::ComponentId id =
      obs::Health::global().component("forum.fleet", 300'000'000'000ull);
  return id;
}

/// Diagnostic sites, registered once.
struct FleetLogSites {
  obs::Log::SiteId resumed = obs::Log::kInvalidSite;
  obs::Log::SiteId forum_quarantined = obs::Log::kInvalidSite;
  obs::Log::SiteId forum_reinstated = obs::Log::kInvalidSite;
  obs::Log::SiteId forum_parked = obs::Log::kInvalidSite;
  obs::Log::SiteId sub_entry_parked = obs::Log::kInvalidSite;
  obs::Log::SiteId checkpoint_written = obs::Log::kInvalidSite;
  obs::Log::SiteId campaign_done = obs::Log::kInvalidSite;
};

const FleetLogSites& fleet_log_sites() {
  static const FleetLogSites sites = [] {
    obs::Log& log = obs::Log::global();
    FleetLogSites s;
    s.resumed = log.site("forum.fleet.resumed", obs::LogLevel::kInfo);
    s.forum_quarantined = log.site("forum.fleet.forum_quarantined", obs::LogLevel::kWarn);
    s.forum_reinstated = log.site("forum.fleet.forum_reinstated", obs::LogLevel::kInfo);
    s.forum_parked = log.site("forum.fleet.forum_parked", obs::LogLevel::kError, 0);
    s.sub_entry_parked = log.site("forum.fleet.sub_entry_parked", obs::LogLevel::kError, 0);
    s.checkpoint_written = log.site("forum.fleet.checkpoint_written", obs::LogLevel::kDebug);
    s.campaign_done = log.site("forum.fleet.campaign_done", obs::LogLevel::kInfo, 0);
    return s;
  }();
  return sites;
}

}  // namespace

const char* to_string(ForumStatus status) noexcept {
  switch (status) {
    case ForumStatus::kActive: return "active";
    case ForumStatus::kQuarantined: return "quarantined";
    case ForumStatus::kParked: return "parked";
  }
  return "unknown";
}

std::size_t fair_share(std::size_t total, std::size_t claimants, std::size_t index) noexcept {
  if (claimants == 0 || index >= claimants) return 0;
  return total / claimants + (index < total % claimants ? 1 : 0);
}

/// Everything one forum campaign owns inside the fleet.  Each forum runs
/// its own clock and transport so sweeps parallelize without sharing
/// mutable state; determinism then only needs the schedule (not the
/// worker interleaving) to be fixed.
struct Fleet::Forum {
  FleetForumSpec spec;
  std::int64_t t0 = 0;  ///< start + stagger(i)
  util::SimClock clock;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<tor::OnionTransport> transport;
  std::string onion;
  SweepOptions sweep_options;
  SweepState state;

  ForumStatus status = ForumStatus::kActive;
  std::size_t reprobe_failures = 0;  ///< failed re-probes while quarantined
  std::size_t rounds_skipped = 0;
  std::size_t parked_at_round = 0;
  std::string park_reason;
  obs::Health::ComponentId health = obs::Health::kInvalidComponent;

  // Scratch for the round in flight (written by the worker, read by the
  // serial ladder phase).
  bool polled = false;
  SweepResult result = SweepResult::kFailed;
  std::vector<ScrapeRecord> committed;

  /// This forum's fleet-level re-probe phase key.
  [[nodiscard]] std::uint64_t reprobe_key() const noexcept {
    return sweep_options.jitter_key ^ kForumReprobeSalt;
  }
};

Fleet::Fleet(std::vector<FleetForumSpec> specs, FleetOptions options)
    : options_(std::move(options)) {
  if (options_.poll_interval_seconds <= 0 || options_.duration_seconds <= 0) {
    throw std::invalid_argument("Fleet: interval and duration must be positive");
  }
  if (specs.empty()) throw std::invalid_argument("Fleet: no forums");
  {
    std::set<std::string> names;
    for (const auto& spec : specs) {
      if (spec.name.empty() || spec.name == kFleetEntryKey || !names.insert(spec.name).second) {
        throw std::invalid_argument("Fleet: forum names must be unique and non-empty");
      }
    }
  }
  rounds_total_ =
      static_cast<std::size_t>(options_.duration_seconds / options_.poll_interval_seconds) + 1;
  // The shared components first: a large fleet fills the health table
  // with its per-forum components below, and neither the fleet's own nor
  // the pool's and transports' (which register lazily, at first use) may
  // be the ones refused.
  core::ThreadPool::register_health();
  tor::OnionTransport::register_health();
  (void)fleet_health();

  const std::size_t count = specs.size();
  forums_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto forum = std::make_unique<Forum>();
    forum->spec = std::move(specs[i]);
    // Staggered slots: forum i polls at t0 + interval * i / N + n * interval,
    // spreading the fleet's load evenly across every interval.
    forum->t0 = options_.start_time_seconds +
                options_.poll_interval_seconds * static_cast<std::int64_t>(i) /
                    static_cast<std::int64_t>(count);
    forum->clock = util::SimClock{options_.start_time_seconds};

    // All per-forum randomness (transport RNG epochs, jitter phases) is a
    // pure function of (fleet seed, forum name) — independent of roster
    // order, sibling traffic, and worker interleaving.
    std::uint64_t mix = options_.seed ^ util::hash64(forum->spec.name);
    const std::uint64_t forum_seed = util::splitmix64(mix);
    tor::TransportOptions transport_options = options_.transport;
    if (forum->spec.fault_plan != nullptr) {
      forum->injector = std::make_unique<fault::FaultInjector>(*forum->spec.fault_plan);
      transport_options.fault_injector = forum->injector.get();
    }
    forum->transport =
        std::make_unique<tor::OnionTransport>(forum->clock, forum_seed, transport_options);
    forum->onion = forum->transport->host(forum->spec.service_key, forum->spec.handler);

    forum->sweep_options.max_pages_per_poll = options_.max_pages_per_poll;
    forum->sweep_options.thread_quarantine_after = options_.thread_quarantine_after;
    forum->sweep_options.thread_quarantine_cooldown_polls =
        options_.thread_quarantine_cooldown_polls;
    forum->sweep_options.jitter_key = forum_seed;

    forum->state.dump.onion = forum->onion;
    forum->state.dump.forum_name = forum->spec.name;
    forum->state.t0 = forum->t0;
    forum->state.end_time = forum->t0 + options_.duration_seconds;

    // Past the component cap this degrades to a no-op id (beats are
    // guarded) and the healthz report counts the refusal, so a 200-forum
    // fleet is fine — the forum.fleet component, registered above, and
    // the fleet gauges still cover it.
    forum->health = obs::Health::global().component("fleet." + forum->spec.name,
                                                    300'000'000'000ull);
    forums_.push_back(std::move(forum));
  }

  if (!options_.checkpoint_path.empty() &&
      std::filesystem::exists(options_.checkpoint_path)) {
    resume_from_checkpoint();
  }
  refresh_gauges();
}

Fleet::~Fleet() = default;

void Fleet::resume_from_checkpoint() {
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::vector<util::ManifestEntryStatus> entries =
      util::read_manifest_checkpoint_file(options_.checkpoint_path, kFleetCheckpointVersion);

  // The global entry carries the schedule and the roster; without it the
  // file cannot be matched to this campaign, so it gets no per-entry
  // mercy: unreadable global = unusable checkpoint.
  const util::ManifestEntryStatus* global = nullptr;
  for (const auto& entry : entries) {
    if (entry.key == kFleetEntryKey) global = &entry;
  }
  if (global == nullptr) {
    throw util::CheckpointError(util::CheckpointErrorCode::kMalformed,
                                "fleet checkpoint has no __fleet__ entry");
  }
  if (!global->ok) {
    throw util::CheckpointError(global->error,
                                "fleet checkpoint global entry unreadable: " + global->detail);
  }
  {
    util::ByteReader reader{global->payload};
    const std::int64_t start = reader.i64();
    const std::int64_t interval = reader.i64();
    const std::int64_t duration = reader.i64();
    const std::uint64_t next_round = reader.u64();
    const std::uint64_t roster = reader.u64();
    bool matches = start == options_.start_time_seconds &&
                   interval == options_.poll_interval_seconds &&
                   duration == options_.duration_seconds && roster == forums_.size();
    if (matches) {
      for (const auto& forum : forums_) {
        if (reader.str() != forum->spec.name) {
          matches = false;
          break;
        }
      }
    }
    if (!matches || !reader.done() || next_round > rounds_total_) {
      throw util::CheckpointError(util::CheckpointErrorCode::kMalformed,
                                  "fleet checkpoint is for a different campaign");
    }
    next_round_ = static_cast<std::size_t>(next_round);
  }

  std::size_t parked_on_resume = 0;
  for (std::size_t i = 0; i < forums_.size(); ++i) {
    Forum* const forum = forums_[i].get();
    const util::ManifestEntryStatus* entry = nullptr;
    for (const auto& candidate : entries) {
      if (candidate.key == forum->spec.name) entry = &candidate;
    }
    if (entry == nullptr) continue;  // never checkpointed: starts fresh

    // Blast-radius containment: a corrupt sub-entry parks this one forum
    // (its history is gone, continuing would double-record), everything
    // else resumes byte-identically.
    std::string damage;
    if (!entry->ok) {
      damage = std::string{util::to_string(entry->error)} + ": " + entry->detail;
    } else {
      try {
        util::ByteReader reader{entry->payload};
        const std::uint8_t status = reader.u8();
        if (status > static_cast<std::uint8_t>(ForumStatus::kParked)) {
          throw util::CheckpointError(util::CheckpointErrorCode::kMalformed,
                                      "impossible forum status");
        }
        forum->status = static_cast<ForumStatus>(status);
        forum->reprobe_failures = static_cast<std::size_t>(reader.u64());
        forum->rounds_skipped = static_cast<std::size_t>(reader.u64());
        forum->parked_at_round = static_cast<std::size_t>(reader.u64());
        forum->park_reason = reader.str();
        const std::int64_t clock_millis = reader.i64();
        const std::string extra = reader.str();
        decode_sweep_state(reader, forum->state);
        if (!reader.done() || forum->state.dump.onion != forum->onion) {
          throw util::CheckpointError(util::CheckpointErrorCode::kMalformed,
                                      "sub-entry does not match its forum");
        }
        // Rejoin this forum's timeline exactly; later polls then replay
        // bit-identically (schedule-pinned time + per-poll epochs).
        forum->clock.set_millis(clock_millis);
        if (options_.restore_extra) options_.restore_extra(i, extra);
      } catch (const util::CheckpointError& error) {
        damage = error.what();
        forum->state = SweepState{};
        forum->state.dump.onion = forum->onion;
        forum->state.dump.forum_name = forum->spec.name;
        forum->state.t0 = forum->t0;
        forum->state.end_time = forum->t0 + options_.duration_seconds;
      }
    }
    if (!damage.empty()) {
      forum->status = ForumStatus::kParked;
      forum->parked_at_round = next_round_;
      forum->park_reason = "checkpoint sub-entry unreadable (" + damage + ")";
      // Keep the re-encoded state decodable: a parked forum still rides
      // in every later checkpoint frame.
      forum->state.next_poll = std::max<std::int64_t>(
          std::int64_t{1}, static_cast<std::int64_t>(next_round_));
      ++parked_on_resume;
      registry.add(metrics.fleet_sub_entries_quarantined);
      obs::Health::global().mark_failed(forum->health, "checkpoint sub-entry unreadable");
      obs::Log::global().write(fleet_log_sites().sub_entry_parked,
                               "forum parked: checkpoint sub-entry unreadable",
                               {obs::field("forum", forum->spec.name),
                                obs::field("detail", damage)});
    }
  }

  registry.add(metrics.fleet_checkpoint_resumes);
  obs::Log::global().write(fleet_log_sites().resumed, "fleet resumed from checkpoint",
                           {obs::field("next_round", next_round_),
                            obs::field("forums", forums_.size()),
                            obs::field("parked_on_resume", parked_on_resume)});
}

void Fleet::write_fleet_checkpoint() {
  const obs::Stopwatch watch;
  std::vector<util::ManifestEntry> entries;
  entries.reserve(forums_.size() + 1);
  {
    util::ByteWriter writer;
    writer.i64(options_.start_time_seconds);
    writer.i64(options_.poll_interval_seconds);
    writer.i64(options_.duration_seconds);
    writer.u64(next_round_);
    writer.u64(forums_.size());
    for (const auto& forum : forums_) writer.str(forum->spec.name);
    entries.push_back({kFleetEntryKey, writer.take()});
  }
  for (std::size_t i = 0; i < forums_.size(); ++i) {
    const Forum& forum = *forums_[i];
    util::ByteWriter writer;
    writer.u8(static_cast<std::uint8_t>(forum.status));
    writer.u64(forum.reprobe_failures);
    writer.u64(forum.rounds_skipped);
    writer.u64(forum.parked_at_round);
    writer.str(forum.park_reason);
    writer.i64(forum.clock.now_millis());
    writer.str(options_.checkpoint_extra ? options_.checkpoint_extra(i) : std::string{});
    encode_sweep_state(writer, forum.state);
    entries.push_back({forum.spec.name, writer.take()});
  }
  util::write_manifest_checkpoint_file(options_.checkpoint_path, entries,
                                       kFleetCheckpointVersion);

  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.add(metrics.fleet_checkpoint_writes);
  registry.observe(metrics.fleet_checkpoint_write_us, watch.elapsed_us());
  obs::Log::global().write(fleet_log_sites().checkpoint_written, "fleet checkpoint persisted",
                           {obs::field("next_round", next_round_),
                            obs::field("forums", forums_.size()),
                            obs::field("write_us", watch.elapsed_us())});
}

void Fleet::refresh_gauges() const {
  std::size_t active = 0;
  std::size_t quarantined = 0;
  std::size_t parked = 0;
  for (const auto& forum : forums_) {
    switch (forum->status) {
      case ForumStatus::kActive: ++active; break;
      case ForumStatus::kQuarantined: ++quarantined; break;
      case ForumStatus::kParked: ++parked; break;
    }
  }
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.set(metrics.fleet_forums_active, active);
  registry.set(metrics.fleet_forums_quarantined, quarantined);
  registry.set(metrics.fleet_forums_parked, parked);
}

bool Fleet::forum_due(const Forum& forum, std::size_t round) const noexcept {
  switch (forum.status) {
    case ForumStatus::kActive:
      return true;
    case ForumStatus::kQuarantined:
      // Re-probe once per cooldown window, at this forum's jittered phase
      // — a mass quarantine does not thunder back on the same round.
      return is_reprobe_poll(round, options_.forum_quarantine_cooldown_rounds,
                             forum.reprobe_key());
    case ForumStatus::kParked:
      return false;
  }
  return false;
}

void Fleet::poll_round() {
  const std::size_t round = next_round_;
  if (round >= rounds_total_) {
    throw std::logic_error("Fleet::poll_round called after the campaign ended");
  }
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::Health::WorkScope round_work(obs::Health::global(), fleet_health());
  const obs::Stopwatch round_watch;

  // Phase 1 (serial): fix this round's roster and divide the fetch
  // budget.  The remainder — and, when forums outnumber the budget, the
  // zero shares — rotate with the round index so no forum is starved by
  // its position.
  std::vector<std::size_t> due;
  due.reserve(forums_.size());
  for (std::size_t i = 0; i < forums_.size(); ++i) {
    Forum& forum = *forums_[i];
    forum.polled = false;
    forum.committed.clear();
    if (forum_due(forum, round)) {
      due.push_back(i);
    } else if (forum.status == ForumStatus::kQuarantined) {
      ++forum.rounds_skipped;
      registry.add(metrics.fleet_polls_skipped);
    }
  }
  std::vector<std::size_t> shares(due.size(), 0);
  if (options_.request_budget_per_round > 0) {
    std::vector<std::size_t> starved;
    for (std::size_t rank = 0; rank < due.size(); ++rank) {
      shares[rank] = fair_share(options_.request_budget_per_round, due.size(),
                                (rank + round) % due.size());
      if (shares[rank] == 0) starved.push_back(due[rank]);
    }
    // A zero share cannot be expressed as a transport allowance (0 means
    // unlimited), and a zero-fetch sweep would fail and strike the ladder
    // for a scheduling artifact: drop starved forums from the round.
    for (std::size_t rank = due.size(); rank-- > 0;) {
      if (shares[rank] == 0) {
        ++forums_[due[rank]]->rounds_skipped;
        registry.add(metrics.fleet_polls_skipped);
        due.erase(due.begin() + static_cast<std::ptrdiff_t>(rank));
        shares.erase(shares.begin() + static_cast<std::ptrdiff_t>(rank));
      }
    }
  }

  // Phase 2 (parallel): every due forum sweeps on its own clock and
  // transport.  Determinism needs no ordering here — each sweep is a pure
  // function of (forum seed, scheduled second, service state).
  core::ThreadPool::global().for_chunks(
      due.size(), due.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t rank = begin; rank < end; ++rank) {
          Forum& forum = *forums_[due[rank]];
          const obs::Stopwatch poll_watch;
          // Pin the sweep to its schedule slot: latency jitter from
          // earlier rounds is erased at every boundary (set_seconds never
          // rewinds; an overrun slot just starts late, deterministically).
          const std::int64_t scheduled =
              forum.t0 +
              static_cast<std::int64_t>(round) * options_.poll_interval_seconds;
          forum.clock.set_seconds(scheduled);
          forum.transport->begin_epoch(static_cast<std::uint64_t>(scheduled));
          forum.transport->set_epoch_request_allowance(shares[rank]);
          forum.state.next_poll = static_cast<std::int64_t>(round);
          forum.result = try_sweep(*forum.transport, forum.onion, forum.state,
                                   forum.state.baseline_done, forum.sweep_options,
                                   forum.committed);
          forum.polled = true;
          obs::Health::global().beat(forum.health);
          registry.observe(metrics.fleet_forum_poll_us, poll_watch.elapsed_us());
        }
      });

  // Phase 3 (serial, spec order): advance the fleet ladder and hand the
  // committed records out.  Serial so on_commit sees a deterministic
  // order no matter how the workers interleaved.
  for (std::size_t i = 0; i < forums_.size(); ++i) {
    Forum& forum = *forums_[i];
    if (forum.status != ForumStatus::kParked) {
      forum.state.next_poll = static_cast<std::int64_t>(round) + 1;
    }
    if (!forum.polled) continue;

    if (forum.result == SweepResult::kFailed) {
      ++forum.state.consecutive_failed;
      if (forum.status == ForumStatus::kQuarantined) {
        ++forum.reprobe_failures;
        if (options_.forum_park_after > 0 &&
            forum.reprobe_failures >= options_.forum_park_after) {
          forum.status = ForumStatus::kParked;
          forum.parked_at_round = round;
          forum.park_reason = std::to_string(forum.reprobe_failures) +
                              " failed re-probes after quarantine";
          obs::Health::global().mark_failed(forum.health, "parked: re-probes exhausted");
          obs::Log::global().write(fleet_log_sites().forum_parked,
                                   "forum parked for the campaign",
                                   {obs::field("forum", forum.spec.name),
                                    obs::field("round", round),
                                    obs::field("reason", forum.park_reason)});
        }
      } else if (options_.forum_quarantine_after > 0 &&
                 forum.state.consecutive_failed >= options_.forum_quarantine_after) {
        forum.status = ForumStatus::kQuarantined;
        forum.reprobe_failures = 0;
        obs::Log::global().write(fleet_log_sites().forum_quarantined,
                                 "forum quarantined after consecutive failed sweeps",
                                 {obs::field("forum", forum.spec.name),
                                  obs::field("round", round),
                                  obs::field("consecutive_failed",
                                             forum.state.consecutive_failed)});
      }
    } else {
      if (forum.status == ForumStatus::kQuarantined) {
        obs::Log::global().write(fleet_log_sites().forum_reinstated,
                                 "quarantined forum answered its re-probe",
                                 {obs::field("forum", forum.spec.name),
                                  obs::field("round", round)});
      }
      forum.status = ForumStatus::kActive;
      forum.state.consecutive_failed = 0;
      forum.reprobe_failures = 0;
      // The baseline census must be complete before recording starts: a
      // partial baseline would mistake unseen backlog for fresh posts.
      if (!forum.state.baseline_done && forum.result == SweepResult::kFull) {
        forum.state.baseline_done = true;
      }
      if (options_.on_commit && !forum.committed.empty()) {
        options_.on_commit(i, forum.committed);
      }
    }
  }

  ++next_round_;
  ++rounds_this_run_;
  registry.add(metrics.fleet_rounds);
  registry.observe(metrics.fleet_round_us, round_watch.elapsed_us());
  refresh_gauges();

  const std::size_t cadence =
      options_.checkpoint_every_rounds > 0 ? options_.checkpoint_every_rounds : std::size_t{1};
  if (!options_.checkpoint_path.empty() && next_round_ % cadence == 0) {
    write_fleet_checkpoint();
  }
  if (options_.halt_after_rounds > 0 && rounds_this_run_ >= options_.halt_after_rounds &&
      !done()) {
    // Chaos hook: simulate the process dying right here.  Deliberately no
    // extra checkpoint write — resume sees exactly what the cadence left
    // on disk.
    throw CrawlError(CrawlErrorCategory::kHalted, "", "",
                     "halt_after_rounds chaos hook fired");
  }
}

FleetResult Fleet::finish() {
  if (!done()) throw std::logic_error("Fleet::finish called before the campaign ended");
  if (!options_.checkpoint_path.empty()) {
    // Campaign complete: the checkpoint has served its purpose, and a
    // stale file must not hijack an unrelated future run.
    std::error_code ignored;
    std::filesystem::remove(options_.checkpoint_path, ignored);
  }

  FleetResult result;
  result.rounds = rounds_total_;
  result.forums.reserve(forums_.size());
  for (auto& forum : forums_) {
    FleetForumOutcome outcome;
    outcome.name = forum->spec.name;
    outcome.onion = forum->onion;
    outcome.status = forum->status;
    outcome.rounds_polled = forum->state.dump.polls;
    outcome.rounds_skipped = forum->rounds_skipped;
    outcome.parked_at_round = forum->parked_at_round;
    outcome.park_reason = forum->park_reason;
    outcome.manifest = build_manifest(forum->state.dump);
    outcome.dump = std::move(forum->state.dump);
    switch (forum->status) {
      case ForumStatus::kActive: ++result.active; break;
      case ForumStatus::kQuarantined: ++result.quarantined; break;
      case ForumStatus::kParked: ++result.parked; break;
    }
    result.forums.push_back(std::move(outcome));
  }
  obs::Log::global().write(fleet_log_sites().campaign_done, "fleet campaign complete",
                           {obs::field("rounds", rounds_total_),
                            obs::field("active", result.active),
                            obs::field("quarantined", result.quarantined),
                            obs::field("parked", result.parked)});
  return result;
}

FleetResult Fleet::run() {
  while (!done()) poll_round();
  return finish();
}

std::vector<Fleet::ForumSnapshot> Fleet::snapshot() const {
  std::vector<ForumSnapshot> out;
  out.reserve(forums_.size());
  for (const auto& forum : forums_) {
    ForumSnapshot snap;
    snap.name = forum->spec.name;
    snap.status = forum->status;
    snap.polls = forum->state.dump.polls;
    snap.polls_failed = forum->state.dump.polls_failed;
    snap.records = forum->state.dump.records.size();
    snap.rounds_skipped = forum->rounds_skipped;
    snap.park_reason = forum->park_reason;
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace tzgeo::forum
