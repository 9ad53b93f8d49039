#include "forum/sweep.hpp"

#include <functional>
#include <utility>

#include "forum/error.hpp"
#include "forum/parser.hpp"
#include "obs/log.hpp"
#include "obs/pipeline_metrics.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace tzgeo::forum {

namespace {

/// Diagnostic site for thread strikes, registered once.
obs::Log::SiteId thread_quarantined_site() {
  static const obs::Log::SiteId id =
      obs::Log::global().site("forum.monitor.thread_quarantined", obs::LogLevel::kWarn);
  return id;
}

/// Walks one thread tail-first, staging everything; throws CrawlError /
/// tor::TransportError on any page it cannot fetch or parse.
void walk_thread(tor::OnionTransport& transport, const std::string& onion,
                 const ThreadRef& thread, const std::set<std::uint64_t>& seen, bool record,
                 const std::function<tor::Response(const std::string&)>& fetch_page,
                 std::set<std::uint64_t>& fresh, std::vector<ScrapeRecord>& staged,
                 std::size_t& malformed) {
  // Newest posts are on the last page; walk backwards until a page with
  // no unseen posts (or page 1).
  for (std::size_t page = thread.pages; page >= 1; --page) {
    const std::string path =
        "/thread/" + std::to_string(thread.id) + "?page=" + std::to_string(page);
    const tor::Response response = fetch_page(path);
    const auto parsed = parse_thread_page(
        response.body, tz::from_utc_seconds(transport.clock().now_seconds()).date);
    if (!parsed) {
      throw CrawlError(CrawlErrorCategory::kUnparsable, onion, path, "unparsable thread page");
    }
    malformed += record ? parsed->malformed_posts : 0;

    bool any_new = false;
    for (const auto& post : parsed->posts) {
      if (seen.count(post.id) != 0 || !fresh.insert(post.id).second) continue;
      any_new = true;
      if (!record) continue;
      ScrapeRecord entry;
      entry.post_id = post.id;
      entry.thread_id = parsed->thread_id;
      entry.author = post.author;
      entry.display_time = post.display_time;  // typically absent (kHidden)
      entry.observed_utc = transport.clock().now_seconds();
      staged.push_back(std::move(entry));
    }
    if (!any_new || page == 1) break;
  }
}

/// One polling sweep under the degradation ladder.  The index must be
/// readable (otherwise the sweep fails outright: no thread list, nothing
/// to commit).  Each thread is then walked independently: a thread that
/// fails is skipped and its quarantine strike count grows, the rest of the
/// sweep commits thread-by-thread, so an abort mid-thread can never mark a
/// post seen without recording it.
[[nodiscard]] SweepResult laddered_sweep(tor::OnionTransport& transport,
                                         const std::string& onion, SweepState& state,
                                         bool record, const SweepOptions& options,
                                         std::vector<ScrapeRecord>& committed) {
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();

  std::size_t pages_this_poll = 0;
  const std::function<tor::Response(const std::string&)> fetch_page =
      [&](const std::string& path) {
        if (++pages_this_poll > options.max_pages_per_poll) {
          throw CrawlError(CrawlErrorCategory::kPageCap, onion, path,
                           "per-poll page cap exceeded");
        }
        ++state.dump.pages_fetched;
        registry.add(metrics.forum_pages_fetched);
        tor::Response response = transport.fetch(onion, tor::Request{"GET", path, ""});
        if (response.status != 200) {
          throw CrawlError(CrawlErrorCategory::kFetchFailed, onion, path,
                           "status " + std::to_string(response.status));
        }
        return response;
      };

  // Rung 0: the index.  Without a thread list there is nothing to degrade
  // to — any failure here fails the sweep.
  std::vector<ThreadRef> threads;
  try {
    std::size_t index_pages = 1;
    for (std::size_t page = 1; page <= index_pages; ++page) {
      const std::string path = "/index?page=" + std::to_string(page);
      const tor::Response response = fetch_page(path);
      const auto parsed = parse_index_page(response.body);
      if (!parsed) {
        throw CrawlError(CrawlErrorCategory::kUnparsable, onion, path, "unparsable index");
      }
      index_pages = parsed->pages;
      threads.insert(threads.end(), parsed->threads.begin(), parsed->threads.end());
    }
  } catch (const std::exception&) {
    return SweepResult::kFailed;
  }

  // Rung 1: per-thread walks with quarantine.  A quarantined thread is
  // only re-probed on its jittered cooldown slot; everything else
  // proceeds.
  bool degraded = false;
  for (const auto& thread : threads) {
    const auto strikes = state.quarantine.find(thread.id);
    const bool quarantined = options.thread_quarantine_after > 0 &&
                             strikes != state.quarantine.end() &&
                             strikes->second >= options.thread_quarantine_after;
    const bool reprobe = is_reprobe_poll(static_cast<std::uint64_t>(state.next_poll),
                                         options.thread_quarantine_cooldown_polls,
                                         options.jitter_key ^ thread.id);
    if (quarantined && !reprobe) {
      ++state.dump.threads_quarantined;
      registry.add(metrics.forum_threads_quarantined);
      degraded = true;
      continue;
    }

    std::set<std::uint64_t> fresh;
    std::vector<ScrapeRecord> staged;
    std::size_t malformed = 0;
    try {
      walk_thread(transport, onion, thread, state.seen, record, fetch_page, fresh, staged,
                  malformed);
    } catch (const CrawlError& error) {
      if (error.category() == CrawlErrorCategory::kPageCap) {
        // The page budget is sweep-wide: once spent, the remaining threads
        // cannot be fetched either.  Threads already committed stand.
        return SweepResult::kFailed;
      }
      const std::uint32_t thread_strikes = ++state.quarantine[thread.id];
      obs::Log::global().write(thread_quarantined_site(),
                               "thread walk failed; strike recorded",
                               {obs::field("thread", thread.id),
                                obs::field("strikes", thread_strikes),
                                obs::field("error", error.what())});
      degraded = true;
      continue;
    } catch (const std::exception& error) {  // tor::TransportError and parser faults
      const std::uint32_t thread_strikes = ++state.quarantine[thread.id];
      obs::Log::global().write(thread_quarantined_site(),
                               "thread walk failed; strike recorded",
                               {obs::field("thread", thread.id),
                                obs::field("strikes", thread_strikes),
                                obs::field("error", error.what())});
      degraded = true;
      continue;
    }

    // Rung 2: commit this thread.  Per-thread granularity keeps the
    // invariant that a post marked seen is always either backlog or
    // recorded, no matter where the sweep stops.
    state.seen.merge(fresh);
    state.dump.malformed_posts += malformed;
    registry.add(metrics.forum_parse_failures, malformed);
    for (ScrapeRecord& entry : staged) {
      committed.push_back(entry);
      state.dump.records.push_back(std::move(entry));
    }
    state.quarantine.erase(thread.id);
  }
  return degraded ? SweepResult::kPartial : SweepResult::kFull;
}

}  // namespace

std::uint64_t cooldown_phase(std::uint64_t key, std::uint64_t cooldown) noexcept {
  // One splitmix64 pass decorrelates phases of adjacent keys (thread ids
  // and fleet indices are sequential); the modulo spreads them across the
  // window.
  std::uint64_t s = key;
  return util::splitmix64(s) % cooldown;
}

bool is_reprobe_poll(std::uint64_t poll, std::uint64_t cooldown, std::uint64_t key) noexcept {
  if (cooldown == 0) return false;
  return poll % cooldown == cooldown_phase(key, cooldown);
}

SweepResult try_sweep(tor::OnionTransport& transport, const std::string& onion,
                      SweepState& state, bool record, const SweepOptions& options,
                      std::vector<ScrapeRecord>& committed) {
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::ScopedSpan poll_span("forum.poll");
  const obs::Stopwatch watch;
  ++state.dump.polls;
  registry.add(metrics.forum_polls);

  const SweepResult result = laddered_sweep(transport, onion, state, record, options, committed);
  if (result == SweepResult::kFailed) {
    ++state.dump.polls_failed;
    registry.add(metrics.forum_polls_failed);
  } else if (result == SweepResult::kPartial) {
    ++state.dump.polls_partial;
    registry.add(metrics.forum_polls_partial);
  }
  registry.observe(metrics.forum_poll_us, watch.elapsed_us());
  return result;
}

void encode_sweep_state(util::ByteWriter& writer, const SweepState& state) {
  writer.str(state.dump.onion);
  writer.str(state.dump.forum_name);
  writer.i64(state.t0);
  writer.i64(state.end_time);
  writer.i64(state.next_poll);
  writer.u8(state.baseline_done ? 1 : 0);
  writer.u64(state.consecutive_failed);
  writer.u64(state.seen.size());
  for (const std::uint64_t id : state.seen) writer.u64(id);
  writer.u64(state.quarantine.size());
  for (const auto& [thread_id, strikes] : state.quarantine) {
    writer.u64(thread_id);
    writer.u32(strikes);
  }
  writer.u64(state.dump.pages_fetched);
  writer.u64(state.dump.malformed_posts);
  writer.u64(state.dump.polls);
  writer.u64(state.dump.polls_failed);
  writer.u64(state.dump.polls_partial);
  writer.u64(state.dump.threads_quarantined);
  writer.u64(state.dump.records.size());
  for (const ScrapeRecord& record : state.dump.records) {
    writer.u64(record.post_id);
    writer.u64(record.thread_id);
    writer.str(record.author);
    writer.u8(record.display_time.has_value() ? 1 : 0);
    if (record.display_time.has_value()) {
      const tz::CivilDateTime& when = *record.display_time;
      writer.i64(when.date.year);
      writer.i64(when.date.month);
      writer.i64(when.date.day);
      writer.i64(when.hour);
      writer.i64(when.minute);
      writer.i64(when.second);
    }
    writer.i64(record.observed_utc);
  }
}

void decode_sweep_state(util::ByteReader& reader, SweepState& state) {
  state.dump.onion = reader.str();
  state.dump.forum_name = reader.str();
  state.t0 = reader.i64();
  state.end_time = reader.i64();
  state.next_poll = reader.i64();
  state.baseline_done = reader.u8() != 0;
  state.consecutive_failed = static_cast<std::size_t>(reader.u64());
  const std::uint64_t seen_count = reader.u64();
  for (std::uint64_t i = 0; i < seen_count; ++i) state.seen.insert(reader.u64());
  const std::uint64_t quarantine_count = reader.u64();
  for (std::uint64_t i = 0; i < quarantine_count; ++i) {
    const std::uint64_t thread_id = reader.u64();
    state.quarantine[thread_id] = reader.u32();
  }
  state.dump.pages_fetched = static_cast<std::size_t>(reader.u64());
  state.dump.malformed_posts = static_cast<std::size_t>(reader.u64());
  state.dump.polls = static_cast<std::size_t>(reader.u64());
  state.dump.polls_failed = static_cast<std::size_t>(reader.u64());
  state.dump.polls_partial = static_cast<std::size_t>(reader.u64());
  state.dump.threads_quarantined = static_cast<std::size_t>(reader.u64());
  // A record is at least its post and thread ids, the author's length
  // prefix, the display-time flag and the observed instant.
  constexpr std::size_t kMinRecordBytes = 4 * sizeof(std::uint64_t) + 1;
  const std::size_t record_count = reader.count(kMinRecordBytes);
  state.dump.records.reserve(record_count);
  for (std::size_t i = 0; i < record_count; ++i) {
    ScrapeRecord record;
    record.post_id = reader.u64();
    record.thread_id = reader.u64();
    record.author = reader.str();
    if (reader.u8() != 0) {
      tz::CivilDateTime when;
      when.date.year = static_cast<std::int32_t>(reader.i64());
      when.date.month = static_cast<std::int32_t>(reader.i64());
      when.date.day = static_cast<std::int32_t>(reader.i64());
      when.hour = static_cast<std::int32_t>(reader.i64());
      when.minute = static_cast<std::int32_t>(reader.i64());
      when.second = static_cast<std::int32_t>(reader.i64());
      record.display_time = when;
    }
    record.observed_utc = reader.i64();
    state.dump.records.push_back(std::move(record));
  }
  if (state.end_time < state.t0 || state.next_poll < 1 ||
      state.dump.polls < state.dump.polls_failed) {
    throw util::CheckpointError(util::CheckpointErrorCode::kMalformed,
                                "sweep state decoded to impossible values");
  }
}

}  // namespace tzgeo::forum
