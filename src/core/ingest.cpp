#include "core/ingest.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/thread_pool.hpp"
#include "obs/pipeline_metrics.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "util/constants.hpp"
#include "util/csv.hpp"
#include "util/handle_table.hpp"
#include "util/strings.hpp"

namespace tzgeo::core {

namespace {

constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";
constexpr std::string_view kArityError = "CSV row arity mismatch";

/// True when the row looks like a header ("author", "user", ...).
[[nodiscard]] bool looks_like_header(const std::vector<std::string_view>& row) {
  if (row.size() < 2) return false;
  const std::string_view first = util::trim(row[0]);
  return first == "author" || first == "user" || first == "handle" || first == "member";
}

/// Partitions of the (author id, time) pairs: pairs go to partition
/// `id >> (64 - kPartitionBits)`, so every user's pairs land in one
/// partition, grouped by one pool task with no lock and no shared table.
constexpr unsigned kPartitionBits = 6;
constexpr std::size_t kPartitions = std::size_t{1} << kPartitionBits;

/// One accepted row: the author's user id and the post's instant.
struct UserTime {
  std::uint64_t user;
  tz::UtcSeconds time;
};

/// Everything one chunk produces, in text order.  Errors are captured,
/// not thrown: the caller rethrows the first one in chunk order, which is
/// the first error in text order — exactly what a serial scan throws.
struct ChunkOutcome {
  std::array<std::vector<UserTime>, kPartitions> parts;  ///< pairs by partition
  std::size_t rows_ok = 0;
  std::size_t rows_rejected = 0;
  std::uint64_t fixups = 0;  ///< escaped fields materialized by the scanner
  std::exception_ptr error;
};

void consume_row(const std::vector<std::string_view>& fields, ChunkOutcome& out) {
  const std::string_view author = util::trim(fields[0]);
  const auto time = parse_utc_timestamp(fields[1]);
  if (author.empty() || !time) {
    ++out.rows_rejected;
    return;
  }
  const std::uint64_t user = user_id_of(author);
  out.parts[user >> (64 - kPartitionBits)].push_back(UserTime{user, *time});
  ++out.rows_ok;
}

/// Parses one self-contained chunk of data rows.
void parse_chunk(std::string_view chunk, std::size_t arity, ChunkOutcome& out) noexcept {
  try {
    util::CsvScanner scanner{chunk};
    std::vector<std::string_view> fields;
    while (scanner.next(fields)) {
      if (fields.size() != arity) throw std::invalid_argument(std::string{kArityError});
      consume_row(fields, out);
    }
    out.fixups = scanner.fixups_applied();
  } catch (...) {  // tzgeo-lint: allow(catch-style): exception_ptr capture for cross-thread rethrow
    out.error = std::current_exception();
  }
}

/// The users of one partition and their events, in first-sighting order.
struct PartitionUsers {
  std::vector<std::uint64_t> ids;
  std::vector<std::vector<tz::UtcSeconds>> events;
};

/// Groups partition `part` of every chunk by user, reading the chunks in
/// text order so each user's events keep their text order, and frees each
/// chunk's pairs once they are placed.  Interning and an exact per-user
/// count come first, so each event vector is allocated once.
PartitionUsers group_partition(std::vector<ChunkOutcome>& outcomes, std::size_t part) {
  std::size_t pairs = 0;
  for (const ChunkOutcome& outcome : outcomes) pairs += outcome.parts[part].size();
  util::HandleTable table;
  std::vector<std::uint32_t> handles;
  handles.reserve(pairs);
  std::vector<std::uint32_t> counts;
  for (const ChunkOutcome& outcome : outcomes) {
    for (const UserTime& pair : outcome.parts[part]) {
      const std::uint32_t handle = table.intern(pair.user);
      if (handle == counts.size()) counts.push_back(0);
      ++counts[handle];
      handles.push_back(handle);
    }
  }
  PartitionUsers users;
  users.ids = table.keys();
  users.events.resize(counts.size());
  for (std::size_t handle = 0; handle < counts.size(); ++handle) {
    users.events[handle].reserve(counts[handle]);
  }
  std::size_t next = 0;
  for (ChunkOutcome& outcome : outcomes) {
    std::vector<UserTime>& chunk_pairs = outcome.parts[part];
    for (const UserTime& pair : chunk_pairs) users.events[handles[next++]].push_back(pair.time);
    std::vector<UserTime>{}.swap(chunk_pairs);
  }
  return users;
}

constexpr std::uint64_t kEveryByte = 0x0101010101010101ULL;

/// Eight bytes of `p` with byte k in bits 8k..8k+7, on any host.
[[nodiscard]] std::uint64_t load_le64(const char* p) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  if constexpr (std::endian::native == std::endian::big) {
    std::uint64_t swapped = 0;
    for (int k = 0; k < 8; ++k) swapped = (swapped << 8) | ((word >> (8 * k)) & 0xFF);
    word = swapped;
  }
  return word;
}

/// Byte template of "YYYY-MM-DD HH:MM:SS": `mask` keeps the high nibble of
/// each digit position and the whole byte of each separator, `expect` is
/// the masked value a well-formed byte has, and `carry` adds 6 to each
/// digit so a low nibble above 9 spills into the high nibble.
struct WordTemplate {
  std::uint64_t mask = 0;
  std::uint64_t expect = 0;
  std::uint64_t carry = 0;
};

[[nodiscard]] constexpr WordTemplate word_template(std::string_view pattern) noexcept {
  WordTemplate t;
  for (std::size_t k = 0; k < 8; ++k) {
    const auto shift = static_cast<unsigned>(8 * k);
    const char c = pattern[k];
    if (c == 'D') {
      t.mask |= std::uint64_t{0xF0} << shift;
      t.expect |= std::uint64_t{0x30} << shift;
      t.carry |= std::uint64_t{0x06} << shift;
    } else {
      t.mask |= std::uint64_t{0xFF} << shift;
      t.expect |= std::uint64_t{static_cast<std::uint8_t>(c)} << shift;
    }
  }
  return t;
}

/// True when the eight bytes match the template: every digit position
/// holds '0'..'9' (high nibble 3, and still 3 after adding 6) and every
/// separator its exact byte.  No byte carries into its neighbour.
[[nodiscard]] constexpr bool matches(std::uint64_t word, const WordTemplate& t) noexcept {
  return (word & t.mask) == t.expect && ((word + t.carry) & t.mask) == t.expect;
}

/// Digit pairs of a word matched against a template: byte i of the result
/// is 10 * digit(i) + digit(i + 1) for each digit byte i whose neighbour is
/// a digit too (separator bytes are zeroed first, so nothing carries).
[[nodiscard]] constexpr std::uint64_t digit_pairs(std::uint64_t word) noexcept {
  const std::uint64_t digits = word & (kEveryByte * 0x0F);
  return digits * 10 + (digits >> 8);
}

/// The value of eight ASCII digits (the first in the low byte): pairs,
/// then quads, then the whole (three multiplies, no per-digit chain).
[[nodiscard]] constexpr std::uint64_t eight_digit_value(std::uint64_t word) noexcept {
  const std::uint64_t pairs = digit_pairs(word);
  return ((pairs & 0x000000FF000000FFULL) * (100 + (1000000ULL << 32)) +
          ((pairs >> 16) & 0x000000FF000000FFULL) * (1 + (10000ULL << 32))) >>
         32;
}

/// The canonical forms most dumps use, parsed at fixed positions: 1-18
/// epoch digits (no sign, cannot overflow) and exactly
/// "YYYY-MM-DD HH:MM:SS".  Every field is range-checked before one
/// days_from_civil.  std::nullopt means "not canonical", never "invalid":
/// the caller then runs the general parser, so the accepted set and the
/// values are exactly the general parser's.
[[nodiscard]] std::optional<tz::UtcSeconds> parse_canonical_timestamp(
    std::string_view text) noexcept {
  constexpr std::size_t kCivilBytes = 19;     // "YYYY-MM-DD HH:MM:SS"
  constexpr std::size_t kMaxSafeDigits = 18;  // < 2^63 whatever the digits
  static constexpr WordTemplate kEightDigits = word_template("DDDDDDDD");
  const std::size_t n = text.size();
  const char* p = text.data();
  if (n == kCivilBytes) {
    // Bytes 0-7 "YYYY-MM-", 8-15 "DD HH:MM", 11-18 "HH:MM:SS" (overlapping).
    static constexpr WordTemplate kHead = word_template("DDDD-DD-");
    static constexpr WordTemplate kMid = word_template("DD DD:DD");
    static constexpr WordTemplate kTail = word_template("DD:DD:DD");
    const std::uint64_t head = load_le64(p);
    const std::uint64_t mid = load_le64(p + 8);
    const std::uint64_t tail = load_le64(p + 11);
    if (!matches(head, kHead) || !matches(mid, kMid) || !matches(tail, kTail)) {
      return std::nullopt;
    }
    const auto field = [](std::uint64_t pairs, unsigned byte) {
      return static_cast<std::int32_t>((pairs >> (8 * byte)) & 0xFF);
    };
    const std::uint64_t head_pairs = digit_pairs(head);
    const std::uint64_t mid_pairs = digit_pairs(mid);
    const std::int32_t year = field(head_pairs, 0) * 100 + field(head_pairs, 2);
    const std::int32_t month = field(head_pairs, 5);
    const std::int32_t day = field(mid_pairs, 0);
    const std::int32_t hour = field(mid_pairs, 3);
    const std::int32_t minute = field(mid_pairs, 6);
    const std::int32_t second = field(digit_pairs(tail), 6);
    if (month < 1 || month > 12 || day < 1 || day > tz::days_in_month(year, month) ||
        hour > kMaxHourOfDay || minute > 59 || second > 59) {
      return std::nullopt;
    }
    return tz::to_utc_seconds(
        tz::CivilDateTime{tz::CivilDate{year, month, day}, hour, minute, second});
  }
  if (n == 0 || n > kMaxSafeDigits) return std::nullopt;
  std::size_t done = 0;
  std::uint64_t value = 0;
  for (; done + 8 <= n; done += 8) {
    const std::uint64_t word = load_le64(p + done);
    if (!matches(word, kEightDigits)) return std::nullopt;
    value = value * 100'000'000 + eight_digit_value(word);
  }
  for (; done < n; ++done) {
    const auto digit = static_cast<unsigned>(p[done] - '0');
    if (digit > 9) return std::nullopt;
    value = value * 10 + digit;
  }
  return static_cast<tz::UtcSeconds>(value);
}

/// Offsets of chunk starts within `body`: 0 plus up to `want - 1` cut
/// points, each the first quote-aware row boundary at or after the
/// corresponding equal-size target.  Toggling quote parity on every '"'
/// byte reproduces the scanner's in/out-of-quotes state at every newline
/// (a doubled escape toggles twice), so no cut ever lands inside a
/// quoted field.
[[nodiscard]] std::vector<std::size_t> chunk_starts(std::string_view body, std::size_t want) {
  std::vector<std::size_t> starts{0};
  if (want <= 1 || body.size() < 2) return starts;
  if (std::memchr(body.data(), '"', body.size()) == nullptr) {
    for (std::size_t k = 1; k < want; ++k) {
      const std::size_t target = std::max(body.size() * k / want, starts.back());
      if (target >= body.size()) break;
      const auto* nl = static_cast<const char*>(
          std::memchr(body.data() + target, '\n', body.size() - target));
      if (nl == nullptr) break;
      const auto start = static_cast<std::size_t>(nl - body.data()) + 1;
      if (start < body.size() && start > starts.back()) starts.push_back(start);
    }
    return starts;
  }
  bool in_quotes = false;
  std::size_t k = 1;
  std::size_t target = body.size() / want;
  for (std::size_t i = 0; i < body.size() && k < want; ++i) {
    const char c = body[i];
    if (c == '"') {
      in_quotes = !in_quotes;
    } else if (c == '\n' && !in_quotes && i >= target) {
      const std::size_t start = i + 1;
      if (start < body.size() && start > starts.back()) starts.push_back(start);
      ++k;
      target = std::max(body.size() * k / want, start);
    }
  }
  return starts;
}

}  // namespace

std::optional<tz::UtcSeconds> parse_utc_timestamp(std::string_view text) noexcept {
  if (const auto fast = parse_canonical_timestamp(text)) return *fast;
  text = util::trim(text);
  if (const auto epoch = util::parse_int(text)) return *epoch;
  std::size_t used = 0;
  const auto dt = tz::parse_civil_datetime(text, &used);
  if (!dt) return std::nullopt;
  // Accept trailing whitespace and an optional 'Z' UTC designator; a NUL
  // also terminates (embedded NULs truncated the legacy sscanf parse).
  std::size_t pos = used;
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  if (pos < text.size() && text[pos] == 'Z') ++pos;
  if (pos < text.size() && text[pos] != '\0') return std::nullopt;
  return tz::to_utc_seconds(*dt);
}

IngestResult trace_from_csv(std::string_view csv_text) {
  return trace_from_csv(csv_text, IngestOptions{});
}

IngestResult trace_from_csv(std::string_view csv_text, const IngestOptions& options) {
  const obs::ScopedSpan ingest_span("ingest");
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();

  std::string_view text = csv_text;
  if (text.substr(0, kUtf8Bom.size()) == kUtf8Bom) text.remove_prefix(kUtf8Bom.size());

  util::CsvScanner scanner{text};
  std::vector<std::string_view> fields;
  if (!scanner.next(fields)) return IngestResult{};
  const std::size_t arity = fields.size();

  if (arity < 2) {
    // Legacy exception order: the whole document was parsed up front, so a
    // ragged later row surfaces as an arity error before the column check.
    while (scanner.next(fields)) {
      if (fields.size() != arity) throw std::invalid_argument(std::string{kArityError});
    }
    throw std::invalid_argument("trace_from_csv: need at least author,utc_time columns");
  }

  const std::string_view body = text.substr(scanner.offset());

  ThreadPool* pool = nullptr;
  std::optional<ThreadPool> local_pool;
  std::size_t participants = 1;
  if (body.size() >= options.min_parallel_bytes) {
    if (options.threads == 0) {
      // The pool keeps >= 1 worker even on a single-core machine (callers
      // that must overlap I/O rely on that); for pure CPU-bound parsing,
      // oversubscribing one core only adds context switches, so fall back
      // to the serial scan there.
      const std::size_t hardware =
          std::max<std::size_t>(1, std::thread::hardware_concurrency());
      if (hardware > 1) {
        pool = &ThreadPool::global();
        participants = std::min(pool->size() + 1, hardware);
      }
    } else if (options.threads > 1) {
      local_pool.emplace(options.threads - 1);
      pool = &*local_pool;
      participants = options.threads;
    }
  }

  constexpr std::size_t kMinChunkBytes = 64 * 1024;
  std::size_t want = 1;
  if (participants > 1) {
    want = std::min(participants * 2, std::max<std::size_t>(1, body.size() / kMinChunkBytes));
  }
  const std::vector<std::size_t> starts = chunk_starts(body, want);
  const std::size_t chunks = starts.size();

  // Pass 1: scan every chunk into partitioned (user, time) pairs.  Slot 0
  // holds the first row when it is data, not a header: it precedes every
  // chunk in text order.
  std::vector<ChunkOutcome> outcomes(chunks + 1);
  if (!looks_like_header(fields)) consume_row(fields, outcomes[0]);
  const auto scan = [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      const obs::ScopedSpan chunk_span("ingest.chunk");
      const obs::Stopwatch watch;
      const std::size_t stop = c + 1 < chunks ? starts[c + 1] : body.size();
      parse_chunk(body.substr(starts[c], stop - starts[c]), arity, outcomes[c + 1]);
      registry.observe(metrics.ingest_chunk_parse_us, watch.elapsed_us());
      registry.add(metrics.ingest_chunks);
    }
  };
  if (pool != nullptr && chunks > 1) {
    pool->for_chunks(chunks, chunks, scan);
  } else {
    scan(0, chunks);
  }

  IngestResult result;
  std::uint64_t fixups = scanner.fixups_applied();
  for (const ChunkOutcome& outcome : outcomes) {
    if (outcome.error) std::rethrow_exception(outcome.error);
    result.rows_ok += outcome.rows_ok;
    result.rows_rejected += outcome.rows_rejected;
    fixups += outcome.fixups;
  }

  // Pass 2: group each partition by user.  Partitions share no user, so
  // the trace adopts their vectors with O(users) serial work.
  std::vector<PartitionUsers> grouped(kPartitions);
  const auto group = [&](std::size_t begin, std::size_t end) {
    for (std::size_t part = begin; part < end; ++part) {
      grouped[part] = group_partition(outcomes, part);
    }
  };
  if (pool != nullptr && chunks > 1) {
    pool->for_chunks(kPartitions, kPartitions, group);
  } else {
    group(0, kPartitions);
  }
  std::size_t users = 0;
  for (const PartitionUsers& part : grouped) users += part.ids.size();
  result.trace.reserve(users);
  for (PartitionUsers& part : grouped) {
    for (std::size_t i = 0; i < part.ids.size(); ++i) {
      result.trace.adopt(part.ids[i], std::move(part.events[i]));
    }
  }

  registry.add(metrics.ingest_rows_ok, result.rows_ok);
  registry.add(metrics.ingest_rows_rejected, result.rows_rejected);
  registry.add(metrics.ingest_bytes, csv_text.size());
  registry.add(metrics.ingest_escaped_fixups, fixups);
  registry.set(metrics.ingest_handle_load_factor_pct,
               static_cast<std::int64_t>(result.trace.handle_load_factor() * 100.0));
  return result;
}

IngestResult trace_from_csv_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("trace_from_csv_file: cannot open " + path);
  // Read into one pre-sized buffer; the ostringstream detour copied the
  // whole file a second time (and grew the stream buffer piecewise).
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) throw std::runtime_error("trace_from_csv_file: cannot stat " + path);
  in.seekg(0, std::ios::beg);
  std::string buffer(static_cast<std::size_t>(size), '\0');
  in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (in.gcount() != static_cast<std::streamsize>(buffer.size())) {
    throw std::runtime_error("trace_from_csv_file: read failed for " + path);
  }
  return trace_from_csv(buffer);
}

std::string trace_to_csv(const ActivityTrace& trace) {
  // Appended piecewise — GCC 12's -Wrestrict misfires on operator+
  // chains under -O2 (GCC PR105651) — and faster: no row temporaries.
  std::string out = "author,utc_time\n";
  for (const auto& [user, events] : trace.users()) {
    std::string author = "u";
    author += std::to_string(user);
    for (const tz::UtcSeconds t : events) {
      out += author;
      out.push_back(',');
      out += std::to_string(t);
      out.push_back('\n');
    }
  }
  return out;
}

void trace_to_csv_file(const ActivityTrace& trace, const std::string& path) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error("trace_to_csv_file: cannot open " + path);
  out << trace_to_csv(trace);
  if (!out) throw std::runtime_error("trace_to_csv_file: write failed for " + path);
}

}  // namespace tzgeo::core
