// pipeline_bench: the repository's end-to-end benchmark.
//
//   pipeline_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--scale F] [--golden FILE] [--trace-out FILE] [--describe]
//
// One process runs one workload, so no thread pool, SoA cache or peak-RSS
// mark carries over from another workload; run.py builds the binary and
// runs several workloads, one process each.  Inputs are boards generated
// in memory from --seed, each just before it is used and outside the
// timed window.  The load is a closed loop with one client — an
// investigator or a monitor waits for each result before asking for the
// next — cycling through the boards until --seconds of operations have
// been timed (every board runs at least once, and an operation or a
// monitor campaign in progress always completes).
//
// --trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
// operations with traced ones, whose every layer call runs inside a span
// and between process-CPU and metrics-registry readings, and prints the
// per-layer metrics.  All timing happens around the library's public entry
// points; the benchmark adds nothing inside src/.
//
// Every operation's output is reduced to a digest and checked: against the
// injected truth of the input (junk rows, garbled posts), against the
// board's first operation in the run, and — where --golden has one for
// this seed and scale — the digest over all boards against the committed
// one.  The last stdout line is
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the exit code is 0 only when every operation was correct.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/bootstrap.hpp"
#include "core/dossier.hpp"
#include "core/flat_filter.hpp"
#include "core/incremental.hpp"
#include "core/ingest.hpp"
#include "core/profile_builder.hpp"
#include "core/report.hpp"
#include "core/report_json.hpp"
#include "core/soa_crowd.hpp"
#include "core/thread_pool.hpp"
#include "forum/parser.hpp"
#include "inputs.hpp"
#include "obs/pipeline_metrics.hpp"
#include "obs/trace.hpp"
#include "util/constants.hpp"
#include "util/json.hpp"

namespace {

using namespace tzgeo;
using pipeline_bench::CsvInput;
using pipeline_bench::PageInput;
using pipeline_bench::Workload;

// What the investigate workload asks for: `analyze --bootstrap 200` and
// `dossier --top 500`.
constexpr int kResamples = 200;
constexpr std::size_t kDossiers = 500;
constexpr int kSetupRepeats = 5;
constexpr double kReferenceScale = 0.05;  // tzgeo_cli's reference profiles
constexpr double kPlaneBytesPerUser = kZoneCount * sizeof(double);  // one CDF column
constexpr std::size_t kMinUsersForZoneCheck = 100;

// --- clocks and process counters -----------------------------------------

[[nodiscard]] double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU time of the whole process (all threads).
[[nodiscard]] double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// VmHWM, the resident-set high-water mark, in MB.
[[nodiscard]] double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Resets VmHWM to the current RSS, so input generation is not counted.
void reset_peak_rss() {
  std::ofstream clear_refs{"/proc/self/clear_refs"};
  clear_refs << "5";
}

[[nodiscard]] double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Nearest-rank percentile of an unsorted sample (0 when empty).
[[nodiscard]] double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

[[nodiscard]] double median(const std::vector<double>& values) { return percentile(values, 0.5); }

// --- output digests -------------------------------------------------------

/// FNV-1a over a canonical text rendering: integers in decimal, reals at
/// %.9g, one space after each field.
class Digest {
 public:
  Digest& add(std::uint64_t value) {
    return text(std::to_string(value));
  }
  Digest& add(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.9g", value);
    return text(buffer);
  }
  Digest& text(const std::string& field) {
    for (const char c : field + " ") {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  [[nodiscard]] std::string hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void add_geolocation(Digest& digest, const core::GeolocationResult& result) {
  digest.add(std::uint64_t{result.users_analyzed})
      .add(std::uint64_t{result.users_filtered_flat})
      .add(std::uint64_t{result.unwrap_cut_bin});
  for (const double count : result.placement.counts) digest.add(count);
  for (const auto& component : result.components) {
    digest.add(component.mean_zone).add(component.sigma).add(component.weight);
  }
}

// --- traced layer calls ---------------------------------------------------

/// Counters the library already keeps, read at layer boundaries.
struct Counters {
  double placement_users = 0;
  double kernel_s = 0;     ///< placement batch time, thread-seconds
  double transpose_s = 0;  ///< SoA transpose time, thread-seconds
  double zones_pruned = 0;
  double zones_evaluated = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double refreshes = 0;

  [[nodiscard]] static Counters read() {
    const auto& m = obs::PipelineMetrics::get();
    const auto& r = obs::MetricsRegistry::global();
    const auto count = [&r](obs::MetricId id) { return static_cast<double>(r.counter_value(id)); };
    const auto sum_s = [&r](obs::MetricId id) {
      return static_cast<double>(r.histogram_value(id).sum) * 1e-6;
    };
    return {count(m.placement_users),
            sum_s(m.placement_batch_us),
            sum_s(m.placement_transpose_us),
            count(m.placement_zones_pruned_vectorized),
            count(m.placement_zones_evaluated_vectorized),
            count(m.placement_soa_cache_hits),
            count(m.placement_soa_cache_misses),
            count(m.incremental_refreshes)};
  }

  [[nodiscard]] Counters operator-(const Counters& o) const {
    return {placement_users - o.placement_users, kernel_s - o.kernel_s,
            transpose_s - o.transpose_s,         zones_pruned - o.zones_pruned,
            zones_evaluated - o.zones_evaluated, cache_hits - o.cache_hits,
            cache_misses - o.cache_misses,       refreshes - o.refreshes};
  }
};

/// One layer call of a traced operation.
struct LayerCall {
  double wall_s = 0;
  double cpu_s = 0;
  Counters delta;
};

/// The layer calls of one traced operation, plus its own span.
struct OpTrace {
  std::uint64_t span = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::map<std::string, LayerCall> layers;
  std::map<std::string, double> facts;  ///< the operation's OpOutcome facts
};

/// Records spans into a sink the benchmark owns.  A null Tracer* means
/// the operation is untraced and layer() is a plain call.
struct Tracer {
  obs::TraceBuffer spans{1u << 18};
  OpTrace* op = nullptr;
};

template <class Fn>
auto layer(Tracer* tracer, const char* name, Fn&& fn) {
  if (tracer == nullptr) return fn();
  const obs::ScopedSpan span(name, &tracer->spans);
  const double wall0 = now_s();
  const double cpu0 = cpu_s();
  const Counters before = Counters::read();
  auto result = fn();
  tracer->op->layers[name] = LayerCall{now_s() - wall0, cpu_s() - cpu0, Counters::read() - before};
  return result;
}

// --- the operations -------------------------------------------------------

/// Outcome of one operation: its digest plus the facts the checks and the
/// per-layer metrics need.
struct OpOutcome {
  std::string digest;
  std::string error;  ///< empty when every check passed
  std::map<std::string, double> facts;
};

[[nodiscard]] std::int32_t circular_gap(std::int32_t a, std::int32_t b) {
  const auto zones = static_cast<std::int32_t>(kZoneCount);
  const std::int32_t d = std::abs(a - b) % zones;
  return std::min(d, zones - d);
}

/// `analyze` (forum-dump, twitter-crowd) or `analyze --bootstrap` followed
/// by `dossier --top` (investigate) on one CSV.  Traced operations also
/// call polish_population and fit_mixture_to_counts on their own, so the
/// polish and mixture layers get numbers; geolocate_crowd still runs both
/// inside it, with the SoA cache emptied first.
OpOutcome analyze(Workload workload, const CsvInput& input, const core::TimeZoneProfiles& zones,
                  Tracer* tracer) {
  const core::IngestResult ingest =
      layer(tracer, "ingest", [&] { return core::trace_from_csv(input.csv); });
  const core::ProfileSet profiles =
      layer(tracer, "profiles", [&] { return core::build_profiles(ingest.trace); });

  OpOutcome out;
  if (tracer != nullptr) {
    const core::PolishResult polish = layer(tracer, "polish", [&] {
      return core::polish_population(profiles.users, zones);
    });
    out.facts["polish.rounds"] = polish.rounds;
    out.facts["polish.users_removed"] = static_cast<double>(polish.split.removed.size());
    core::SoaCrowdCache::global().invalidate_all();
  }

  std::optional<core::GeolocationResult> geo;
  std::optional<core::BootstrapResult> boot;
  std::vector<core::UserDossier> dossiers;
  if (workload != Workload::kInvestigate || tracer != nullptr) {
    geo = layer(tracer, "geolocate", [&] { return core::geolocate_crowd(profiles.users, zones); });
  }
  if (tracer != nullptr) {
    const core::MixtureFitOutcome mixture = layer(tracer, "gmm", [&] {
      return core::fit_mixture_to_counts(geo->placement.counts);
    });
    out.facts["gmm.components"] = static_cast<double>(mixture.components.size());
  }
  if (workload == Workload::kInvestigate) {
    boot = layer(tracer, "bootstrap", [&] {
      core::BootstrapOptions options;
      options.resamples = kResamples;
      return core::bootstrap_geolocation(profiles.users, zones, {}, options);
    });
    dossiers = layer(tracer, "dossier", [&] {
      return core::build_top_dossiers(ingest.trace, zones, kDossiers);
    });
  }
  const std::string report = layer(tracer, "report", [&] {
    if (boot) {
      std::string text = core::to_json(*boot).dump(2);
      util::JsonValue array = util::JsonValue::array();
      for (const auto& dossier : dossiers) array.push(core::to_json(dossier));
      return text + array.dump(2);
    }
    return core::to_json(*geo).dump(2) + core::placement_chart("Crowd placement", *geo) +
           core::describe_geolocation("Geolocation", *geo);
  });

  // Digest and checks, outside any timing.
  const core::GeolocationResult& point = boot ? boot->point : *geo;
  Digest digest;
  digest.add(std::uint64_t{ingest.rows_ok})
      .add(std::uint64_t{ingest.rows_rejected})
      .add(std::uint64_t{ingest.trace.user_count()})
      .add(std::uint64_t{profiles.users.size()})
      .add(std::uint64_t{profiles.filtered_inactive})
      .add(std::uint64_t{profiles.filtered_days});
  add_geolocation(digest, point);
  if (boot) {
    digest.add(boot->component_count_stability);
    for (const auto& c : boot->components) {
      digest.add(c.mean_lo).add(c.mean_hi).add(c.weight_lo).add(c.weight_hi).add(c.support);
    }
    for (const auto& d : dossiers) {
      digest.add(d.user)
          .add(std::uint64_t{d.posts})
          .add(std::uint64_t{d.enough_data})
          .add(static_cast<std::uint64_t>(d.placement.zone_hours - kMinZone))
          .add(std::uint64_t{d.flat})
          .add(static_cast<std::uint64_t>(d.hemisphere.verdict))
          .add(static_cast<std::uint64_t>(d.rest_days.pattern));
    }
  }
  out.digest = digest.hex();

  double placed = 0;
  double weights = 0;
  for (const double count : point.placement.counts) placed += count;
  for (const auto& component : point.components) weights += component.weight;
  // Tiny crowds (the smoke scale) are not expected to land on their zones.
  bool home_zone = point.users_analyzed < kMinUsersForZoneCheck;
  if (!point.components.empty()) {
    for (const std::int32_t zone : input.crowd.zones) {
      home_zone = home_zone || circular_gap(point.components.front().nearest_zone, zone) <= 1;
    }
  }
  if (ingest.rows_ok + ingest.rows_rejected != input.rows ||
      ingest.rows_rejected != input.junk_rows) {
    out.error = "ingest counts differ from the generated rows";
  } else if (placed != static_cast<double>(point.users_analyzed) ||
             point.users_analyzed + point.users_filtered_flat != profiles.users.size()) {
    out.error = "placement does not account for every profiled user";
  } else if (point.components.empty() || std::abs(weights - 1.0) > 1e-6) {
    out.error = "mixture weights do not sum to 1";
  } else if (!home_zone) {
    out.error = "largest component is not near any generated zone";
  } else if (boot && dossiers.size() != std::min(kDossiers, ingest.trace.user_count())) {
    out.error = "dossier count differs from the request";
  }

  out.facts["bytes"] = static_cast<double>(input.csv.size());
  out.facts["rows_ok"] = static_cast<double>(ingest.rows_ok);
  out.facts["rows_rejected"] = static_cast<double>(ingest.rows_rejected);
  out.facts["users_active"] = static_cast<double>(profiles.users.size());
  out.facts["filtered_inactive"] = static_cast<double>(profiles.filtered_inactive);
  out.facts["filtered_days"] = static_cast<double>(profiles.filtered_days);
  out.facts["report_bytes"] = static_cast<double>(report.size());
  out.facts["dossiers"] = static_cast<double>(dossiers.size());
  return out;
}

/// One live-monitor campaign: a fresh geolocator reads the board a poll
/// (25 pages) at a time and re-estimates the crowd after every poll.
class Campaign {
 public:
  Campaign(const PageInput& input, const core::TimeZoneProfiles& zones)
      : input_(input), geolocator_(zones) {}

  [[nodiscard]] bool done() const { return next_page_ >= input_.pages.size(); }

  /// parse_thread_page and UTC conversion, observe, estimate.
  OpOutcome poll(Tracer* tracer) {
    const std::size_t end = std::min(input_.pages.size(), next_page_ + pipeline_bench::kPagesPerPoll);
    struct Parsed {
      std::vector<forum::ParsedThreadPage> pages;
      /// Author views into `pages`, whose buffer moves with the struct.
      std::vector<std::pair<std::string_view, tz::UtcSeconds>> posts;
      std::size_t bytes = 0;
    };
    const Parsed parsed = layer(tracer, "forum", [&] {
      Parsed out;
      out.pages.reserve(end - next_page_);
      for (std::size_t p = next_page_; p < end; ++p) {
        auto page = forum::parse_thread_page(input_.pages[p]);
        if (!page) throw std::runtime_error("unparsable thread page " + std::to_string(p));
        out.bytes += input_.pages[p].size();
        out.pages.push_back(std::move(*page));
      }
      for (const auto& page : out.pages) {
        malformed_ += page.malformed_posts;
        for (const auto& post : page.posts) {
          if (!post.display_time) {
            ++untimed_;
            continue;
          }
          out.posts.emplace_back(post.author, tz::to_utc_seconds(*post.display_time) -
                                                  input_.display_offset_seconds);
        }
      }
      return out;
    });
    next_page_ = end;
    layer(tracer, "observe", [&] {
      for (const auto& [author, when] : parsed.posts) geolocator_.observe(author, when);
      return parsed.posts.size();
    });
    snapshot_ = layer(tracer, "estimate", [&] { return geolocator_.estimate(); });

    digest_.add(std::uint64_t{snapshot_.posts})
        .add(std::uint64_t{snapshot_.total_users})
        .add(std::uint64_t{snapshot_.active_users})
        .add(std::uint64_t{snapshot_.flat_users});
    for (const double count : snapshot_.counts) digest_.add(count);

    OpOutcome out;
    out.facts["bytes"] = static_cast<double>(parsed.bytes);
    out.facts["observations"] = static_cast<double>(parsed.posts.size());
    return out;
  }

  /// The campaign's digest (every poll's snapshot counts, then the final
  /// mixture) and its checks against the injected truth.
  [[nodiscard]] OpOutcome finish() {
    for (const auto& component : snapshot_.components) {
      digest_.add(component.mean_zone).add(component.sigma).add(component.weight);
    }
    OpOutcome out;
    out.digest = digest_.hex();
    const std::size_t timed = input_.crowd.posts - input_.garbled_posts - input_.untimed_posts;
    if (malformed_ != input_.garbled_posts || untimed_ != input_.untimed_posts) {
      out.error = "parser counts differ from the injected bad timestamps";
    } else if (snapshot_.posts != timed) {
      out.error = "geolocator did not consume every timed post";
    } else if (snapshot_.components.empty()) {
      out.error = "no crowd component after the campaign";
    }
    out.facts["malformed_posts"] = static_cast<double>(malformed_);
    return out;
  }

 private:
  const PageInput& input_;
  core::IncrementalGeolocator geolocator_;
  core::IncrementalGeolocator::Snapshot snapshot_;
  std::size_t next_page_ = 0;
  std::size_t malformed_ = 0;
  std::size_t untimed_ = 0;
  Digest digest_;
};

// --- host bandwidth probe (traced runs) -----------------------------------

struct Host {
  double triad_gbps = 0;
  double memcpy_gbps = 0;
  double llc_mb = 0;
  double array_mb = 0;
};

/// Single-thread STREAM triad and memcpy, best of five passes.  Arrays are
/// one last-level cache each (at least 64 MiB), capped at 256 MiB so the
/// probe stays small on hosts with very large shared caches.
[[nodiscard]] Host probe_host() {
  Host host;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  host.llc_mb = llc > 0 ? static_cast<double>(llc) / (1 << 20) : 0.0;
  const std::size_t bytes =
      std::clamp<std::size_t>(llc > 0 ? static_cast<std::size_t>(llc) : 0, 64u << 20, 256u << 20);
  host.array_mb = static_cast<double>(bytes) / (1 << 20);
  const std::size_t n = bytes / sizeof(double);
  std::vector<double> a(n, 1.0);
  std::vector<double> b(n, 2.0);
  std::vector<double> c(n, 0.5);
  double best_triad = 1e30;
  double best_copy = 1e30;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    const double t1 = now_s();
    std::memcpy(c.data(), a.data(), bytes);
    const double t2 = now_s();
    best_triad = std::min(best_triad, t1 - t0);
    best_copy = std::min(best_copy, t2 - t1);
  }
  if (a[n / 2] != c[n / 2]) throw std::logic_error("bandwidth probe copy mismatch");
  host.triad_gbps = 3.0 * static_cast<double>(bytes) / best_triad * 1e-9;
  host.memcpy_gbps = 2.0 * static_cast<double>(bytes) / best_copy * 1e-9;
  return host;
}

// --- the run --------------------------------------------------------------

struct Args {
  Workload workload = Workload::kForumDump;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string golden;
  std::string trace_out;
  bool describe = false;
};

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_s.p50", "s"},
    {"cpu_s_per_op", "s"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics: every traced run prints all of them, 0 where the
// workload does not call the layer.  README.md defines each one.
constexpr Metric kPerLayer[] = {
    {"trace.op_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.spans_dropped", "count"},
    {"ingest.share", "ratio"},
    {"ingest.mb_per_s", "MB/s"},
    {"ingest.cpu_util", "ratio"},
    {"ingest.speedup_4t", "ratio"},
    {"ingest.memcpy_fraction", "ratio"},
    {"ingest.rows_rejected", "count"},
    {"profiles.share", "ratio"},
    {"profiles.rows_per_s", "1/s"},
    {"profiles.users_active", "count"},
    {"profiles.filtered_inactive", "count"},
    {"profiles.filtered_days", "count"},
    {"polish.share", "ratio"},
    {"polish.rounds", "count"},
    {"polish.users_removed", "count"},
    {"polish.cpu_util", "ratio"},
    {"polish.self_cpu_share", "ratio"},
    {"geolocate.share", "ratio"},
    {"geolocate.cpu_util", "ratio"},
    {"placement.users_placed", "count"},
    {"placement.replace_factor", "ratio"},
    {"placement.prune_ratio", "ratio"},
    {"placement.soa_cache_hit_ratio", "ratio"},
    {"placement.kernel_users_per_s", "1/s"},
    {"placement.transpose_share", "ratio"},
    {"placement.bytes_per_pass_mb", "MB"},
    {"placement.bw_fraction", "ratio"},
    {"gmm.share", "ratio"},
    {"gmm.components", "count"},
    {"bootstrap.share", "ratio"},
    {"bootstrap.refits_per_s", "1/s"},
    {"bootstrap.cpu_util", "ratio"},
    {"dossier.share", "ratio"},
    {"dossier.users_per_s", "1/s"},
    {"dossier.cpu_util", "ratio"},
    {"report.share", "ratio"},
    {"report.bytes", "bytes"},
    {"forum.share", "ratio"},
    {"forum.mb_per_s", "MB/s"},
    {"forum.malformed_posts", "count"},
    {"incremental.observe_share", "ratio"},
    {"incremental.estimate_share", "ratio"},
    {"incremental.estimate_tail_ratio", "ratio"},
    {"incremental.refreshes_per_poll", "count"},
    {"incremental.refresh_ratio", "ratio"},
    {"pool.cpu_util", "ratio"},
    {"pool.threads", "count"},
    {"host.triad_gbps", "GB/s"},
    {"host.memcpy_gbps", "GB/s"},
    {"host.llc_mb", "MB"},
    {"host.probe_array_mb", "MB"},
    {"host.nproc", "count"},
};

struct SpanTime {
  double total_s = 0;
  double self_s = 0;  ///< total minus the part of it that child spans cover
};

[[nodiscard]] std::map<std::uint64_t, SpanTime> span_times(
    const std::vector<obs::SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> children;
  for (const auto& s : spans) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::map<std::uint64_t, SpanTime> times;
  for (const auto& s : spans) {
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start_ns;
    for (const auto& [start, end] : kids) {
      const std::uint64_t from = std::max(start, reach);
      const std::uint64_t to = std::min(end, s.end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    times[s.id] = {static_cast<double>(s.end_ns - s.start_ns) * 1e-9,
                   static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9};
  }
  return times;
}

class Run {
 public:
  explicit Run(const Args& args) : args_(args) {}

  int execute() {
    boards_ = pipeline_bench::boards_of(args_.workload);
    if (args_.describe) return describe();
    digests_.assign(boards_, std::string{});
    if (args_.trace) {
      host_ = probe_host();
      tracer_ = std::make_unique<Tracer>();
      op_name_ = std::string{"op:"} + pipeline_bench::name_of(args_.workload);
    }
    setup();
    if (args_.workload == Workload::kLiveMonitor) {
      run_campaigns();
    } else {
      if (args_.trace) measure_ingest_scaling();
      run_operations();
    }
    check_golden();
    return report();
  }

 private:
  /// Board `b` of the run, generated when first needed.  Only the board in
  /// use is held, so a run of many boards keeps its inputs out of the peak
  /// RSS; generation time is kept out of the measured --seconds.
  const CsvInput& csv_board(std::size_t b) {
    if (board_ != b || !csv_) {
      const double t0 = now_s();
      csv_.reset();
      csv_ = pipeline_bench::make_csv_input(args_.workload, args_.seed, b, args_.scale);
      board_ = b;
      generation_s_ += now_s() - t0;
    }
    return *csv_;
  }

  const PageInput& page_board(std::size_t b) {
    if (board_ != b || !pages_) {
      const double t0 = now_s();
      pages_.reset();
      pages_ = pipeline_bench::make_page_input(args_.seed, b, args_.scale);
      board_ = b;
      generation_s_ += now_s() - t0;
    }
    return *pages_;
  }

  /// Measured time so far: wall time minus input generation.
  [[nodiscard]] double measured_s(double start) const { return now_s() - start - generation_s_; }

  /// Child start to ready, as a CLI user pays it on every call: reference
  /// zone profiles, plus the geolocator for the monitor.  Median of
  /// several repeats; the pool starts before the first.
  void setup() {
    (void)core::ThreadPool::global();
    std::vector<double> times;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const double t0 = now_s();
      zones_ = bench::build_reference_profiles(kReferenceScale).zones;
      if (args_.workload == Workload::kLiveMonitor) {
        const core::IncrementalGeolocator geolocator{*zones_};
        (void)geolocator.user_count();
      }
      times.push_back(now_s() - t0);
    }
    setup_s_ = median(times);
  }

  void measure_ingest_scaling() {
    const auto best_of = [this](std::size_t threads) {
      core::IngestOptions options;
      options.threads = threads;
      double best = 1e30;
      for (int i = 0; i < 3; ++i) {
        const double t0 = now_s();
        const core::IngestResult result = core::trace_from_csv(csv_board(0).csv, options);
        best = std::min(best, now_s() - t0);
        if (result.rows_ok == 0) throw std::runtime_error("ingest produced no rows");
      }
      return best;
    };
    ingest_speedup_4t_ = ratio(best_of(1), best_of(4));
  }

  /// Records the outcome of `ops` operations on one board: failed when a
  /// check failed or the digest differs from that board's first digest.
  void judge(const OpOutcome& outcome, std::size_t board, std::size_t ops) {
    std::string error = outcome.error;
    if (error.empty()) {
      if (digests_[board].empty()) digests_[board] = outcome.digest;
      if (outcome.digest != digests_[board]) {
        error = "digest " + outcome.digest + " differs from " + digests_[board];
      }
    }
    if (!error.empty()) {
      failed_ += ops;
      if (first_error_.empty()) first_error_ = error;
    }
  }

  /// Times one operation.  A traced one runs inside an op span, and its
  /// layer calls record spans, CPU time and counter deltas.  An exception
  /// makes the operation a failed one.
  template <class Fn>
  OpOutcome time_op(bool traced, Fn&& fn) {
    OpTrace op;
    OpOutcome outcome;
    const double wall0 = now_s();
    const double cpu0 = cpu_s();
    try {
      if (traced) {
        tracer_->op = &op;
        const obs::ScopedSpan span(op_name_.c_str(), &tracer_->spans);
        op.span = span.id();
        outcome = fn(tracer_.get());
      } else {
        outcome = fn(nullptr);
      }
    } catch (const std::exception& error) {
      outcome.error = std::string{"threw: "} + error.what();
    }
    op.wall_s = now_s() - wall0;
    op.cpu_s = cpu_s() - cpu0;
    loop_cpu_s_ += op.cpu_s;
    if (traced) {
      traced_latencies_.push_back(op.wall_s);
      op.facts = outcome.facts;
      traced_ops_.push_back(std::move(op));
    } else {
      latencies_.push_back(op.wall_s);
    }
    return outcome;
  }

  /// Operations cycle through the boards.  Traced runs alternate traced
  /// and untraced operations, with the parity flipped on every pass over
  /// the boards so each board is seen both ways.  The peak-RSS mark is
  /// reset after generation, before every operation.
  void run_operations() {
    const double start = now_s();
    const std::size_t min_ops = std::max<std::size_t>(boards_, args_.trace ? 2 : 1);
    while (attempted_ < min_ops || measured_s(start) < args_.seconds) {
      const std::size_t board = attempted_ % boards_;
      const CsvInput& input = csv_board(board);
      const bool traced = args_.trace && (board + attempted_ / boards_) % 2 == 1;
      core::SoaCrowdCache::global().invalidate_all();
      reset_peak_rss();
      const OpOutcome outcome = time_op(traced, [&](Tracer* tracer) {
        return analyze(args_.workload, input, *zones_, tracer);
      });
      peak_rss_mb_ = std::max(peak_rss_mb_, peak_rss_mb());
      ++attempted_;
      judge(outcome, board, 1);
    }
  }

  /// Whole campaigns, each from an empty geolocator, cycling through the
  /// boards.  Every board runs once; after that another campaign starts
  /// only while one more of the last one's length still fits the time.
  void run_campaigns() {
    const double run_start = now_s();
    double last_s = 0;
    for (std::size_t c = 0; c < boards_ || measured_s(run_start) + last_s <= args_.seconds;
         ++c) {
      const PageInput& input = page_board(c % boards_);
      reset_peak_rss();
      const double start = now_s();
      Campaign campaign{input, *zones_};
      std::size_t polls = 0;
      OpOutcome outcome;
      while (!campaign.done() && outcome.error.empty()) {
        outcome = time_op(args_.trace && polls % 2 == 1,
                          [&](Tracer* tracer) { return campaign.poll(tracer); });
        ++polls;
      }
      if (outcome.error.empty()) outcome = campaign.finish();
      last_s = now_s() - start;
      peak_rss_mb_ = std::max(peak_rss_mb_, peak_rss_mb());
      attempted_ += polls;
      judge(outcome, c % boards_, polls);
      if (c < boards_) malformed_posts_ += outcome.facts["malformed_posts"];
    }
  }

  int describe() {
    pipeline_bench::CrowdShape crowd;
    std::size_t rows = 0, junk = 0, pages = 0, bytes = 0, garbled = 0, untimed = 0, polls = 0;
    const auto add = [&crowd](const pipeline_bench::CrowdShape& board) {
      crowd.posts += board.posts;
      crowd.authors += board.authors;
      crowd.authors_below_30 += board.authors_below_30;
      crowd.flat_bots += board.flat_bots;
    };
    for (std::size_t b = 0; b < boards_ && args_.workload != Workload::kLiveMonitor; ++b) {
      const CsvInput& board = csv_board(b);
      add(board.crowd);
      rows += board.rows;
      junk += board.junk_rows;
      bytes += board.csv.size();
    }
    for (std::size_t b = 0; b < boards_ && args_.workload == Workload::kLiveMonitor; ++b) {
      const PageInput& board = page_board(b);
      add(board.crowd);
      pages += board.pages.size();
      bytes += board.bytes;
      garbled += board.garbled_posts;
      untimed += board.untimed_posts;
      polls += (board.pages.size() + pipeline_bench::kPagesPerPoll - 1) /
               pipeline_bench::kPagesPerPoll;
    }
    const double authors = static_cast<double>(crowd.authors);
    std::printf("workload          %s (seed %llu, scale %g)\n",
                pipeline_bench::name_of(args_.workload),
                static_cast<unsigned long long>(args_.seed), args_.scale);
    std::printf("boards            %zu (totals below)\n", boards_);
    std::printf("posts             %zu\n", crowd.posts);
    std::printf("MB                %.2f\n", static_cast<double>(bytes) / 1e6);
    std::printf("authors           %zu\n", crowd.authors);
    std::printf("below 30 posts    %.4f of authors\n", ratio(crowd.authors_below_30, authors));
    std::printf("flat bots         %.4f of authors\n", ratio(crowd.flat_bots, authors));
    if (args_.workload != Workload::kLiveMonitor) {
      std::printf("rows              %zu\n", rows);
      std::printf("junk rows         %.4f of rows (%zu)\n", ratio(junk, rows), junk);
    } else {
      std::printf("pages             %zu\n", pages);
      std::printf("garbled times     %.4f of posts (%zu)\n", ratio(garbled, crowd.posts), garbled);
      std::printf("missing times     %.4f of posts (%zu)\n", ratio(untimed, crowd.posts), untimed);
      std::printf("polls             %zu (one campaign per board)\n", polls);
    }
    return 0;
  }

  /// The run digest: FNV-1a over the boards' digests, in board order.
  [[nodiscard]] std::string run_digest() const {
    Digest digest;
    for (const auto& board : digests_) digest.text(board);
    return digest.hex();
  }

  /// Compares the run digest with --golden's entry for this workload and
  /// scale, when it has one.  A mismatch fails every operation.
  void check_golden() {
    if (args_.golden.empty()) return;
    std::ifstream in{args_.golden, std::ios::binary};
    if (!in) throw std::runtime_error("cannot read " + args_.golden);
    std::stringstream text;
    text << in.rdbuf();
    const auto document = util::JsonValue::parse(text.str());
    if (!document || !document->is_object()) {
      throw std::runtime_error(args_.golden + " is not a JSON object");
    }
    golden_key_ = pipeline_bench::name_of(args_.workload);
    if (args_.scale != 1.0) {
      char suffix[32];
      std::snprintf(suffix, sizeof suffix, "@%g", args_.scale);
      golden_key_ += suffix;
    }
    const util::JsonValue* golden = document->find(golden_key_);
    if (golden == nullptr) {
      golden_key_ += " absent";
    } else if (golden->as_string() != run_digest()) {
      failed_ = attempted_;
      first_error_ = "digest differs from golden " + golden->as_string();
    }
  }

  [[nodiscard]] std::map<std::string, double> end_to_end() const {
    return {{"setup_s", setup_s_},
            {"latency_s.p50", median(latencies_)},
            {"cpu_s_per_op", ratio(loop_cpu_s_, static_cast<double>(attempted_))},
            {"peak_rss_mb", peak_rss_mb_}};
  }

  [[nodiscard]] std::map<std::string, double> per_layer() const {
    const auto spans = tracer_->spans.snapshot();
    const auto times = span_times(spans);
    std::map<std::uint64_t, std::map<std::string, double>> layer_self;  // op span -> layer -> s
    for (const auto& s : spans) {
      if (s.parent != 0) layer_self[s.parent][s.name] = times.at(s.id).self_s;
    }

    // Per traced operation, then the median over operations.
    std::map<std::string, std::vector<double>> values;
    std::vector<double> estimate_s;
    for (const OpTrace& op : traced_ops_) {
      const auto& layers = layer_self[op.span];
      const auto fact = [&](const char* name) {
        const auto it = op.facts.find(name);
        return it == op.facts.end() ? 0.0 : it->second;
      };
      const auto call = [&](const char* name) {
        const auto it = op.layers.find(name);
        return it == op.layers.end() ? LayerCall{} : it->second;
      };
      const auto busy = [&](const char* name) {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second;
      };
      std::map<std::string, double> v;
      const SpanTime op_time = times.at(op.span);
      const double op_s = op_time.total_s;
      v["trace.op_s"] = op_s;
      v["trace.coverage"] = 1.0 - ratio(op_time.self_s, op_s);
      for (const char* name : {"ingest", "profiles", "polish", "geolocate", "gmm", "bootstrap",
                               "dossier", "report", "forum"}) {
        v[std::string{name} + ".share"] = ratio(busy(name), op_s);
      }
      v["incremental.observe_share"] = ratio(busy("observe"), op_s);
      v["incremental.estimate_share"] = ratio(busy("estimate"), op_s);
      if (busy("estimate") > 0) estimate_s.push_back(busy("estimate"));

      const double mb = fact("bytes") / 1e6;
      const LayerCall ingest = call("ingest");
      v["ingest.mb_per_s"] = ratio(mb, busy("ingest"));
      v["ingest.cpu_util"] = ratio(ingest.cpu_s, ingest.wall_s);
      v["ingest.memcpy_fraction"] = ratio(v["ingest.mb_per_s"], host_.memcpy_gbps * 1e3);
      v["ingest.rows_rejected"] = fact("rows_rejected");
      v["profiles.rows_per_s"] = ratio(fact("rows_ok"), busy("profiles"));
      v["profiles.users_active"] = fact("users_active");
      v["profiles.filtered_inactive"] = fact("filtered_inactive");
      v["profiles.filtered_days"] = fact("filtered_days");

      const LayerCall polish = call("polish");
      v["polish.rounds"] = fact("polish.rounds");
      v["polish.users_removed"] = fact("polish.users_removed");
      v["polish.cpu_util"] = ratio(polish.cpu_s, polish.wall_s);
      v["polish.self_cpu_share"] =
          polish.cpu_s > 0
              ? std::max(0.0, 1.0 - (polish.delta.kernel_s + polish.delta.transpose_s) /
                                        polish.cpu_s)
              : 0.0;

      const LayerCall geo = call("geolocate");
      const Counters& placed = geo.delta;
      v["geolocate.cpu_util"] = ratio(geo.cpu_s, geo.wall_s);
      v["placement.users_placed"] = placed.placement_users;
      v["placement.replace_factor"] = ratio(placed.placement_users, fact("users_active"));
      v["placement.prune_ratio"] =
          ratio(placed.zones_pruned, placed.zones_pruned + placed.zones_evaluated);
      v["placement.soa_cache_hit_ratio"] =
          ratio(placed.cache_hits, placed.cache_hits + placed.cache_misses);
      v["placement.kernel_users_per_s"] = ratio(placed.placement_users, placed.kernel_s);
      v["placement.transpose_share"] =
          ratio(placed.transpose_s, placed.kernel_s + placed.transpose_s);
      v["placement.bytes_per_pass_mb"] = fact("users_active") * kPlaneBytesPerUser / 1e6;
      v["placement.bw_fraction"] =
          ratio(v["placement.kernel_users_per_s"] * kPlaneBytesPerUser, host_.triad_gbps * 1e9);
      v["gmm.components"] = fact("gmm.components");

      const LayerCall boot = call("bootstrap");
      v["bootstrap.refits_per_s"] = ratio(kResamples, busy("bootstrap") - busy("geolocate"));
      v["bootstrap.cpu_util"] = ratio(boot.cpu_s, boot.wall_s);
      const LayerCall dossier = call("dossier");
      v["dossier.users_per_s"] = ratio(fact("dossiers"), busy("dossier"));
      v["dossier.cpu_util"] = ratio(dossier.cpu_s, dossier.wall_s);
      v["report.bytes"] = fact("report_bytes");

      v["forum.mb_per_s"] = ratio(mb, busy("forum"));
      const Counters& refreshed = call("estimate").delta;
      v["incremental.refreshes_per_poll"] = refreshed.refreshes;
      v["incremental.refresh_ratio"] = ratio(refreshed.refreshes, fact("observations"));
      v["pool.cpu_util"] = ratio(op.cpu_s, op.wall_s);
      for (const auto& [name, value] : v) values[name].push_back(value);
    }

    std::map<std::string, double> out;
    for (const auto& [name, samples] : values) out[name] = median(samples);
    out["trace.overhead_ratio"] = ratio(median(traced_latencies_), median(latencies_));
    out["trace.spans_dropped"] = static_cast<double>(tracer_->spans.dropped());
    out["ingest.speedup_4t"] = ingest_speedup_4t_;
    out["forum.malformed_posts"] = malformed_posts_;
    out["incremental.estimate_tail_ratio"] =
        ratio(percentile(estimate_s, 0.99), percentile(estimate_s, 0.5));
    out["pool.threads"] = static_cast<double>(core::ThreadPool::global().size() + 1);
    out["host.triad_gbps"] = host_.triad_gbps;
    out["host.memcpy_gbps"] = host_.memcpy_gbps;
    out["host.llc_mb"] = host_.llc_mb;
    out["host.probe_array_mb"] = host_.array_mb;
    out["host.nproc"] = static_cast<double>(std::thread::hardware_concurrency());
    return out;
  }

  int report() const {
    const bool correct = failed_ == 0;
    std::printf("workload %s seed %llu scale %g: %zu operations, %zu failed\n",
                pipeline_bench::name_of(args_.workload),
                static_cast<unsigned long long>(args_.seed), args_.scale, attempted_, failed_);
    std::printf("digest %s%s\n", run_digest().c_str(),
                golden_key_.empty() ? "" : (" (golden " + golden_key_ + ")").c_str());
    if (!first_error_.empty()) std::printf("first failure: %s\n", first_error_.c_str());

    const auto values = args_.trace ? per_layer() : end_to_end();
    std::string metrics;
    for (const auto& [name, unit] : args_.trace ? std::vector<Metric>(std::begin(kPerLayer),
                                                                      std::end(kPerLayer))
                                                : std::vector<Metric>(std::begin(kEndToEnd),
                                                                      std::end(kEndToEnd))) {
      const auto it = values.find(name);
      const double value = it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
      std::printf("  %-34s %.6g %s\n", name, value, unit);
      char entry[160];
      std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", name, value, unit);
      metrics += entry;
    }
    if (args_.trace && !args_.trace_out.empty()) {
      std::ofstream out{args_.trace_out, std::ios::binary};
      out << tracer_->spans.to_json() << "\n";
      if (!out) throw std::runtime_error("cannot write " + args_.trace_out);
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted_, failed_, metrics.c_str());
    return correct ? 0 : 1;
  }

  const Args& args_;
  Host host_;
  std::size_t boards_ = 1;
  std::size_t board_ = 0;            ///< the board csv_ or pages_ holds
  std::optional<CsvInput> csv_;
  std::optional<PageInput> pages_;
  double generation_s_ = 0;
  std::optional<core::TimeZoneProfiles> zones_;
  double setup_s_ = 0;
  double ingest_speedup_4t_ = 0;
  double peak_rss_mb_ = 0;
  double loop_cpu_s_ = 0;
  double malformed_posts_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> digests_;  ///< per board, from its first operation
  std::string golden_key_;
  std::string first_error_;
  std::vector<double> latencies_;
  std::vector<double> traced_latencies_;
  std::vector<OpTrace> traced_ops_;
  std::string op_name_;
  std::unique_ptr<Tracer> tracer_;  ///< traced runs only
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "pipeline_bench: %s\n"
               "usage: pipeline_bench --workload forum-dump|twitter-crowd|investigate|"
               "live-monitor\n"
               "         [--seed N] [--seconds S] [--trace 0|1] [--scale F]\n"
               "         [--golden FILE] [--trace-out FILE] [--describe]\n",
               problem.c_str());
  std::exit(2);
}

[[nodiscard]] Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--describe") {
      args.describe = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto workload = pipeline_bench::workload_of(value);
        if (!workload) usage("unknown workload '" + value + "'");
        args.workload = *workload;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--scale") {
        args.scale = std::stod(value);
        if (!(args.scale > 0)) usage("--scale must be positive");
      } else if (flag == "--golden") {
        args.golden = value;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return Run{args}.execute();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pipeline_bench: %s\n", error.what());
    return 2;
  }
}
