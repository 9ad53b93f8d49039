#include "obs/log.hpp"

#include <cstdio>
#include <cstring>

#include "obs/pipeline_metrics.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"

namespace tzgeo::obs {

namespace {

/// Bounded, non-allocating text writer for the hot path.  Overflow is
/// sticky: once full, further puts are dropped and `overflow` reports it.
struct BufWriter {
  char* buf;
  std::size_t cap;
  std::size_t len = 0;
  bool overflow = false;

  void put(char c) noexcept {
    if (len + 1 > cap) {
      overflow = true;
      return;
    }
    buf[len++] = c;
  }

  void put(std::string_view text) noexcept {
    if (len + text.size() > cap) {
      overflow = true;
      text = text.substr(0, cap - len);
    }
    std::memcpy(buf + len, text.data(), text.size());
    len += text.size();
  }

  /// JSON string-escapes `text` (no surrounding quotes).  Truncates at
  /// an escape boundary so the output is always a valid string body.
  void put_escaped(std::string_view text) noexcept {
    for (const char c : text) {
      char scratch[8];
      std::string_view piece;
      switch (c) {
        case '"': piece = "\\\""; break;
        case '\\': piece = "\\\\"; break;
        case '\n': piece = "\\n"; break;
        case '\r': piece = "\\r"; break;
        case '\t': piece = "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            std::snprintf(scratch, sizeof scratch, "\\u%04x", c);
            piece = std::string_view{scratch, 6};
          } else {
            piece = std::string_view{&c, 1};
          }
      }
      if (len + piece.size() > cap) {
        overflow = true;
        return;
      }
      std::memcpy(buf + len, piece.data(), piece.size());
      len += piece.size();
    }
  }

  void put_u64(std::uint64_t value) noexcept {
    char scratch[32];
    const int n = std::snprintf(scratch, sizeof scratch, "%llu",
                                static_cast<unsigned long long>(value));
    put(std::string_view{scratch, static_cast<std::size_t>(n)});
  }

  void put_i64(std::int64_t value) noexcept {
    char scratch[32];
    const int n = std::snprintf(scratch, sizeof scratch, "%lld",
                                static_cast<long long>(value));
    put(std::string_view{scratch, static_cast<std::size_t>(n)});
  }

  void put_f64(double value) noexcept {
    char scratch[40];
    const int n = std::snprintf(scratch, sizeof scratch, "%.10g", value);
    put(std::string_view{scratch, static_cast<std::size_t>(n)});
  }
};

/// Formats one field as `"key":value`.  Returns false (writer rolled
/// back by the caller via the saved length) when it does not fit whole.
void put_field(BufWriter& w, const LogField& f) noexcept {
  w.put('"');
  w.put_escaped(f.key);
  w.put("\":");
  switch (f.kind) {
    case LogField::Kind::kInt: w.put_i64(f.i); break;
    case LogField::Kind::kUint: w.put_u64(f.u); break;
    case LogField::Kind::kDouble: w.put_f64(f.d); break;
    case LogField::Kind::kBool: w.put(f.b ? "true" : "false"); break;
    case LogField::Kind::kString:
      w.put('"');
      w.put_escaped(f.s);
      w.put('"');
      break;
  }
}

[[nodiscard]] const char* log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "unknown";  // unreachable
}

}  // namespace

Log::Log(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  if constexpr (kDisabled) {
    capacity_ = 0;
    return;
  }
  ring_.resize(capacity_);  // one up-front allocation; hot path copies into slots
}

Log::SiteId Log::site(std::string_view name, LogLevel level,
                      std::uint32_t max_per_second) {
  if constexpr (kDisabled) return kInvalidSite;
  const std::lock_guard<std::mutex> lock(site_mutex_);
  const std::size_t count = site_count_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < count; ++i) {
    const Site& s = sites_[i];
    if (std::string_view{s.name, s.name_len} == name) return static_cast<SiteId>(i);
  }
  if (count >= kMaxSites) return kInvalidSite;
  Site& s = sites_[count];
  const std::size_t n = std::min(name.size(), kSiteNameCapacity - 1);
  std::memcpy(s.name, name.data(), n);
  s.name[n] = '\0';
  s.name_len = static_cast<std::uint8_t>(n);
  s.level = level;
  s.max_per_second = max_per_second;
  s.window.store(0, std::memory_order_relaxed);
  site_count_.store(count + 1, std::memory_order_release);
  return static_cast<SiteId>(count);
}

bool Log::enabled(SiteId id) const noexcept {
  if constexpr (kDisabled) return false;
  if (id >= site_count_.load(std::memory_order_acquire)) return false;
  if (!runtime_enabled_.load(std::memory_order_relaxed)) return false;
  return static_cast<std::uint8_t>(sites_[id].level) >=
         min_level_.load(std::memory_order_relaxed);
}

bool Log::rate_limit_allows(Site& site, std::uint64_t t_ns) noexcept {
  if (site.max_per_second == 0) return true;
  const auto sec = static_cast<std::uint32_t>(t_ns / 1'000'000'000ull);
  std::uint64_t current = site.window.load(std::memory_order_relaxed);
  while (true) {
    const auto window_sec = static_cast<std::uint32_t>(current >> 32);
    const auto count = static_cast<std::uint32_t>(current & 0xFFFFFFFFu);
    std::uint64_t next;
    if (window_sec != sec) {
      next = (static_cast<std::uint64_t>(sec) << 32) | 1u;
    } else if (count >= site.max_per_second) {
      return false;
    } else {
      next = (static_cast<std::uint64_t>(sec) << 32) | (count + 1u);
    }
    if (site.window.compare_exchange_weak(current, next, std::memory_order_relaxed)) {
      return true;
    }
  }
}

void Log::count_suppressed() noexcept {
  if (this == &Log::global()) {
    MetricsRegistry::global().add(PipelineMetrics::get().log_records_suppressed);
  }
}

void Log::write(SiteId id, std::string_view message,
                std::initializer_list<LogField> fields) noexcept {
  if constexpr (kDisabled) {
    (void)id;
    (void)message;
    (void)fields;
  } else {
    write_at(Stopwatch::now_ns(), id, message, fields);
  }
}

void Log::write_at(std::uint64_t t_ns, SiteId id, std::string_view message,
                   std::initializer_list<LogField> fields) noexcept {  // tzgeo: hot
  if constexpr (kDisabled) {
    (void)t_ns;
    (void)id;
    (void)message;
    (void)fields;
  } else {
    if (id >= site_count_.load(std::memory_order_acquire)) return;
    if (!enabled(id)) {
      suppressed_level_.fetch_add(1, std::memory_order_relaxed);
      count_suppressed();
      return;
    }
    Site& site = sites_[id];
    if (!rate_limit_allows(site, t_ns)) {
      suppressed_rate_.fetch_add(1, std::memory_order_relaxed);
      count_suppressed();
      return;
    }

    // Format fields into stack scratch before taking the ring lock.  A
    // field that does not fit whole is rolled back and the record is
    // marked truncated — the buffer always holds valid object-body JSON.
    char scratch[kFieldsCapacity];
    BufWriter fw{scratch, sizeof scratch};
    bool truncated = false;
    for (const LogField& f : fields) {
      const std::size_t mark = fw.len;
      if (mark != 0) fw.put(',');
      put_field(fw, f);
      if (fw.overflow) {
        fw.len = mark;
        fw.overflow = false;
        truncated = true;
        break;
      }
    }
    if (message.size() > kMessageCapacity - 1) {
      message = message.substr(0, kMessageCapacity - 1);
      truncated = true;
    }

    bool overwrote = false;
    {
      const std::lock_guard<std::mutex> lock(ring_mutex_);
      Record& slot = ring_[next_];
      next_ = (next_ + 1) % capacity_;
      if (retained_ < capacity_) {
        ++retained_;
      } else {
        overwrote = true;
      }
      slot.seq = seq_++;
      slot.t_ns = t_ns;
      slot.site = id;
      slot.thread = TraceContext::thread_index();
      slot.level = site.level;
      slot.truncated = truncated;
      slot.msg_len = static_cast<std::uint16_t>(message.size());
      std::memcpy(slot.msg, message.data(), message.size());
      slot.fields_len = static_cast<std::uint16_t>(fw.len);
      std::memcpy(slot.fields, scratch, fw.len);
    }
    emitted_.fetch_add(1, std::memory_order_relaxed);
    if (overwrote) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      if (this == &Log::global()) {
        MetricsRegistry::global().add(PipelineMetrics::get().log_records_dropped);
      }
    }
  }
}

std::vector<Log::RecordView> Log::snapshot() const {
  std::vector<RecordView> out;
  if constexpr (kDisabled) return out;
  const std::lock_guard<std::mutex> ring_lock(ring_mutex_);
  const std::size_t site_count = site_count_.load(std::memory_order_acquire);
  out.reserve(retained_);
  // Oldest first: when full, next_ points at the oldest record.
  const std::size_t start = retained_ < capacity_ ? 0 : next_;
  for (std::size_t i = 0; i < retained_; ++i) {
    const Record& r = ring_[(start + i) % capacity_];
    RecordView view;
    view.seq = r.seq;
    view.t_ns = r.t_ns;
    view.level = r.level;
    view.thread = r.thread;
    view.truncated = r.truncated;
    if (r.site < site_count) {
      const Site& s = sites_[r.site];
      view.site.assign(s.name, s.name_len);
    }
    view.message.assign(r.msg, r.msg_len);
    view.fields_json.assign(r.fields, r.fields_len);
    out.push_back(std::move(view));
  }
  return out;
}

std::string Log::to_jsonl() const {
  std::string out;
  for (const RecordView& r : snapshot()) {
    out += "{\"t_ns\":";
    out += std::to_string(r.t_ns);
    out += ",\"seq\":";
    out += std::to_string(r.seq);
    out += ",\"level\":";
    out += util::json_quote(log_level_name(r.level));
    out += ",\"site\":";
    out += util::json_quote(r.site);
    out += ",\"thread\":";
    out += std::to_string(r.thread);
    out += ",\"msg\":";
    out += util::json_quote(r.message);
    out += ",\"fields\":{";
    out += r.fields_json;
    out += "}}\n";
  }
  return out;
}

util::JsonValue Log::to_json() const {
  util::JsonValue records = util::JsonValue::array();
  for (const RecordView& r : snapshot()) {
    util::JsonValue entry = util::JsonValue::object();
    entry.set("t_ns", util::JsonValue::integer(static_cast<std::int64_t>(r.t_ns)));
    entry.set("seq", util::JsonValue::integer(static_cast<std::int64_t>(r.seq)));
    entry.set("level", util::JsonValue::string(log_level_name(r.level)));
    entry.set("site", util::JsonValue::string(r.site));
    entry.set("thread", util::JsonValue::integer(r.thread));
    entry.set("msg", util::JsonValue::string(r.message));
    if (r.truncated) entry.set("truncated", util::JsonValue::boolean(true));
    // Field text is already a JSON object body; round-trip through the
    // parser so the dump nests it structurally rather than as a string.
    std::string object_text = "{";
    object_text += r.fields_json;
    object_text += "}";
    if (auto parsed = util::JsonValue::parse(object_text)) {
      entry.set("fields", std::move(*parsed));
    }
    records.push(std::move(entry));
  }
  util::JsonValue root = util::JsonValue::object();
  root.set("records", std::move(records));
  return root;
}

std::size_t Log::retained() const {
  if constexpr (kDisabled) return 0;
  const std::lock_guard<std::mutex> lock(ring_mutex_);
  return retained_;
}

void Log::clear() {
  if constexpr (kDisabled) return;
  const std::lock_guard<std::mutex> lock(ring_mutex_);
  next_ = 0;
  retained_ = 0;
  seq_ = 0;
  emitted_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  suppressed_level_.store(0, std::memory_order_relaxed);
  suppressed_rate_.store(0, std::memory_order_relaxed);
}

Log& Log::global() {
  static Log log;
  return log;
}

}  // namespace tzgeo::obs
