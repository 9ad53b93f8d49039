#include "obs/trace.hpp"

#include <algorithm>

#include "obs/pipeline_metrics.hpp"
#include "util/json.hpp"

namespace tzgeo::obs {

namespace {

std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<std::uint32_t> g_next_thread_index{0};

thread_local std::uint64_t t_current_span = 0;

[[nodiscard]] std::uint32_t this_thread_index() noexcept {
  thread_local const std::uint32_t index =
      g_next_thread_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

// --- TraceBuffer -----------------------------------------------------------

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void TraceBuffer::record(SpanRecord record) {
  bool overwrote = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++total_;
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(record));
    } else {
      ring_[next_] = std::move(record);
      next_ = (next_ + 1) % capacity_;
      overwrote = true;
    }
  }
  // Silent trace loss must show up on dashboards.  Counted outside the
  // ring lock (keeps the lock graph trace-mutex-free) and only for the
  // global buffer — private sinks in tests/benches track their own
  // dropped() and must not pollute the process-wide counter.
  if (overwrote && this == &TraceBuffer::global()) {
    MetricsRegistry::global().add(PipelineMetrics::get().trace_spans_dropped);
  }
}

std::vector<SpanRecord> TraceBuffer::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // Oldest-first: the wrap cursor marks the oldest retained record.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t TraceBuffer::recorded() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::uint64_t TraceBuffer::dropped() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_ - ring_.size();
}

void TraceBuffer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

std::string TraceBuffer::to_json() const {
  util::JsonValue spans = util::JsonValue::array();
  for (const SpanRecord& record : snapshot()) {
    util::JsonValue entry = util::JsonValue::object();
    entry.set("id", util::JsonValue::integer(static_cast<std::int64_t>(record.id)));
    entry.set("parent", util::JsonValue::integer(static_cast<std::int64_t>(record.parent)));
    entry.set("thread", util::JsonValue::integer(record.thread));
    entry.set("name", util::JsonValue::string(record.name));
    entry.set("start_ns",
              util::JsonValue::integer(static_cast<std::int64_t>(record.start_ns)));
    entry.set("end_ns", util::JsonValue::integer(static_cast<std::int64_t>(record.end_ns)));
    spans.push(std::move(entry));
  }
  util::JsonValue root = util::JsonValue::object();
  root.set("spans", std::move(spans));
  return root.dump(2);
}

TraceBuffer& TraceBuffer::global() {
  static TraceBuffer buffer;
  return buffer;
}

// --- TraceContext ----------------------------------------------------------

std::uint64_t TraceContext::current_span() noexcept {
  if constexpr (kDisabled) return 0;
  return t_current_span;
}

std::uint32_t TraceContext::thread_index() noexcept { return this_thread_index(); }

std::uint64_t TraceContext::next_id() noexcept {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

void TraceContext::set_current(std::uint64_t span_id) noexcept { t_current_span = span_id; }

TraceContext::Scope::Scope(std::uint64_t span_id) noexcept {
  if constexpr (kDisabled) {
    (void)span_id;
  } else {
    previous_ = t_current_span;
    t_current_span = span_id;
  }
}

TraceContext::Scope::~Scope() {
  if constexpr (!kDisabled) t_current_span = previous_;
}

// --- ScopedSpan ------------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name, TraceBuffer* sink) noexcept {
  if constexpr (kDisabled) {
    (void)name;
    (void)sink;
  } else {
    name_ = name;
    sink_ = sink != nullptr ? sink : &TraceBuffer::global();
    parent_ = t_current_span;
    id_ = TraceContext::next_id();
    t_current_span = id_;
    start_ns_ = Stopwatch::now_ns();
  }
}

ScopedSpan::~ScopedSpan() {
  if constexpr (kDisabled) return;
  t_current_span = parent_;
  SpanRecord record;
  record.id = id_;
  record.parent = parent_;
  record.start_ns = start_ns_;
  record.end_ns = Stopwatch::now_ns();
  record.thread = this_thread_index();
  record.name.assign(name_);
  sink_->record(std::move(record));
}

}  // namespace tzgeo::obs
