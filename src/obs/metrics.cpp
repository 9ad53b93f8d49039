#include "obs/metrics.hpp"

#include <algorithm>

namespace tzgeo::obs {

namespace {

[[nodiscard]] const char* kind_name(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";  // unreachable
}

}  // namespace

MetricId MetricsRegistry::register_slot(std::string_view name, std::string_view help,
                                        MetricKind kind) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count = registered_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < count; ++i) {
    if (slots_[i].name == name) {
      return slots_[i].kind == kind ? static_cast<MetricId>(i) : kInvalidMetric;
    }
  }
  if (count >= kMaxMetrics) return kInvalidMetric;
  Slot& slot = slots_[count];
  slot.name.assign(name);
  slot.help.assign(help);
  slot.kind = kind;
  if (kind == MetricKind::kHistogram) {
    slot.hist = std::make_unique<std::array<std::atomic<std::uint64_t>, kHistogramBuckets>>();
    for (auto& bucket : *slot.hist) bucket.store(0, std::memory_order_relaxed);
  }
  registered_.store(count + 1, std::memory_order_release);
  return static_cast<MetricId>(count);
}

MetricId MetricsRegistry::counter(std::string_view name, std::string_view help) {
  return register_slot(name, help, MetricKind::kCounter);
}

MetricId MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  return register_slot(name, help, MetricKind::kGauge);
}

MetricId MetricsRegistry::histogram(std::string_view name, std::string_view help) {
  return register_slot(name, help, MetricKind::kHistogram);
}

MetricId MetricsRegistry::find(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count = registered_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < count; ++i) {
    if (slots_[i].name == name) return static_cast<MetricId>(i);
  }
  return kInvalidMetric;
}

std::uint64_t MetricsRegistry::counter_value(MetricId id) const noexcept {
  if (id >= registered_.load(std::memory_order_acquire)) return 0;
  return slots_[id].value.load(std::memory_order_relaxed);
}

std::int64_t MetricsRegistry::gauge_value(MetricId id) const noexcept {
  if (id >= registered_.load(std::memory_order_acquire)) return 0;
  return static_cast<std::int64_t>(slots_[id].value.load(std::memory_order_relaxed));
}

HistogramSnapshot MetricsRegistry::histogram_value(MetricId id) const {
  HistogramSnapshot out;
  if (id >= registered_.load(std::memory_order_acquire)) return out;
  const Slot& slot = slots_[id];
  if (slot.hist == nullptr) return out;
  out.buckets.resize(kHistogramBuckets);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    out.buckets[i] = (*slot.hist)[i].load(std::memory_order_relaxed);
  }
  out.sum = slot.hist_sum.load(std::memory_order_relaxed);
  out.count = slot.hist_count.load(std::memory_order_relaxed);
  return out;
}

std::string MetricsRegistry::name_of(MetricId id) const {
  if (id >= registered_.load(std::memory_order_acquire)) return {};
  const std::lock_guard<std::mutex> lock(mutex_);
  return slots_[id].name;
}

bool MetricsRegistry::read_histogram(MetricId id, std::uint64_t* buckets,
                                     std::uint64_t& sum,
                                     std::uint64_t& count) const noexcept {
  if (id >= registered_.load(std::memory_order_acquire)) return false;
  const Slot& slot = slots_[id];
  if (slot.hist == nullptr) return false;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] = (*slot.hist)[i].load(std::memory_order_relaxed);
  }
  sum = slot.hist_sum.load(std::memory_order_relaxed);
  count = slot.hist_count.load(std::memory_order_relaxed);
  return true;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  const std::size_t count = registered_.load(std::memory_order_acquire);
  std::vector<MetricSample> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Slot& slot = slots_[i];
    MetricSample sample;
    {
      // Name/help are immutable after registration; the lock only orders
      // against a concurrent register_slot appending *later* slots.
      const std::lock_guard<std::mutex> lock(mutex_);
      sample.name = slot.name;
      sample.help = slot.help;
      sample.kind = slot.kind;
    }
    if (sample.kind == MetricKind::kHistogram) {
      sample.histogram = histogram_value(static_cast<MetricId>(i));
    } else {
      sample.value = slot.value.load(std::memory_order_relaxed);
    }
    out.push_back(std::move(sample));
  }
  return out;
}

std::string MetricsRegistry::prometheus() const {
  // Built piecewise (no operator+ chains; see the GCC12 -Wrestrict note
  // in trace_to_csv) into one growing buffer.  Names and help strings
  // pass through the exposition-format escapers: registrations normally
  // follow the tzgeo_* scheme, but the scrape must stay parseable even
  // if a caller registers something exotic.
  std::string out;
  for (const MetricSample& sample : snapshot()) {
    const std::string name = prometheus_sanitize_name(sample.name);
    if (!sample.help.empty()) {
      out += "# HELP ";
      out += name;
      out.push_back(' ');
      out += prometheus_escape_help(sample.help);
      out.push_back('\n');
    }
    out += "# TYPE ";
    out += name;
    out.push_back(' ');
    out += kind_name(sample.kind);
    out.push_back('\n');
    switch (sample.kind) {
      case MetricKind::kCounter:
        out += name;
        out.push_back(' ');
        out += std::to_string(sample.value);
        out.push_back('\n');
        break;
      case MetricKind::kGauge:
        out += name;
        out.push_back(' ');
        out += std::to_string(static_cast<std::int64_t>(sample.value));
        out.push_back('\n');
        break;
      case MetricKind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < sample.histogram.buckets.size(); ++i) {
          cumulative += sample.histogram.buckets[i];
          out += name;
          out += "_bucket{le=\"";
          if (i + 1 < sample.histogram.buckets.size()) {
            out += std::to_string(bucket_bound(i));
          } else {
            out += "+Inf";
          }
          out += "\"} ";
          out += std::to_string(cumulative);
          out.push_back('\n');
        }
        out += name;
        out += "_sum ";
        out += std::to_string(sample.histogram.sum);
        out.push_back('\n');
        out += name;
        out += "_count ";
        out += std::to_string(sample.histogram.count);
        out.push_back('\n');
        break;
      }
    }
  }
  return out;
}

util::JsonValue MetricsRegistry::to_json() const {
  util::JsonValue metrics = util::JsonValue::array();
  for (const MetricSample& sample : snapshot()) {
    util::JsonValue entry = util::JsonValue::object();
    entry.set("name", util::JsonValue::string(sample.name));
    entry.set("kind", util::JsonValue::string(kind_name(sample.kind)));
    if (!sample.help.empty()) entry.set("help", util::JsonValue::string(sample.help));
    switch (sample.kind) {
      case MetricKind::kCounter:
        entry.set("value", util::JsonValue::integer(static_cast<std::int64_t>(sample.value)));
        break;
      case MetricKind::kGauge:
        entry.set("value", util::JsonValue::integer(static_cast<std::int64_t>(sample.value)));
        break;
      case MetricKind::kHistogram: {
        util::JsonValue buckets = util::JsonValue::array();
        for (const std::uint64_t count : sample.histogram.buckets) {
          buckets.push(util::JsonValue::integer(static_cast<std::int64_t>(count)));
        }
        entry.set("buckets", std::move(buckets));
        entry.set("sum",
                  util::JsonValue::integer(static_cast<std::int64_t>(sample.histogram.sum)));
        entry.set("count",
                  util::JsonValue::integer(static_cast<std::int64_t>(sample.histogram.count)));
        break;
      }
    }
    metrics.push(std::move(entry));
  }
  util::JsonValue root = util::JsonValue::object();
  root.set("metrics", std::move(metrics));
  return root;
}

void MetricsRegistry::reset() noexcept {
  const std::size_t count = registered_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < count; ++i) {
    Slot& slot = slots_[i];
    slot.value.store(0, std::memory_order_relaxed);
    if (slot.hist != nullptr) {
      for (auto& bucket : *slot.hist) bucket.store(0, std::memory_order_relaxed);
      slot.hist_sum.store(0, std::memory_order_relaxed);
      slot.hist_count.store(0, std::memory_order_relaxed);
    }
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::string prometheus_escape_help(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string prometheus_sanitize_name(std::string_view name) {
  if (name.empty()) return "_";
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    const bool ok = alpha || c == '_' || c == ':' || (digit && i != 0);
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::uint64_t approx_quantile(const HistogramSnapshot& histogram, double q) noexcept {
  if (histogram.count == 0 || histogram.buckets.empty()) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      clamped * static_cast<double>(histogram.count - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < histogram.buckets.size(); ++i) {
    seen += histogram.buckets[i];
    if (seen > rank) return MetricsRegistry::bucket_bound(i);
  }
  return MetricsRegistry::bucket_bound(histogram.buckets.size() - 1);
}

}  // namespace tzgeo::obs
