// Tests for the observability layer: registry semantics, histogram bucket
// math, concurrent updates, span nesting (same-thread and across the
// ThreadPool propagation edge), ring-buffer retention, and the exporters.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace tzgeo::obs {
namespace {

// Tests that assert *update* behavior are vacuous when the layer is
// compiled out (-DTZGEO_OBS_DISABLED): add/observe/span bodies are empty
// by design.  Registration, find, and bucket math stay live either way.
#define TZGEO_SKIP_IF_OBS_DISABLED() \
  if (kDisabled) GTEST_SKIP() << "obs layer compiled out (TZGEO_OBS_DISABLED)"

// The registry's slot array is fixed-capacity and large; tests use
// heap-allocated private instances so the global one stays untouched.
[[nodiscard]] std::unique_ptr<MetricsRegistry> make_registry() {
  return std::make_unique<MetricsRegistry>();
}

[[nodiscard]] const SpanRecord* find_span(const std::vector<SpanRecord>& spans,
                                          const std::string& name) {
  for (const auto& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

// --- registration ---------------------------------------------------------

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  auto registry = make_registry();
  const MetricId a = registry->counter("tzgeo_test_total", "help text");
  const MetricId b = registry->counter("tzgeo_test_total");
  EXPECT_NE(a, kInvalidMetric);
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry->size(), 1u);
}

TEST(MetricsRegistry, KindMismatchReturnsInvalid) {
  auto registry = make_registry();
  const MetricId counter = registry->counter("tzgeo_test_total");
  EXPECT_NE(counter, kInvalidMetric);
  EXPECT_EQ(registry->gauge("tzgeo_test_total"), kInvalidMetric);
  EXPECT_EQ(registry->histogram("tzgeo_test_total"), kInvalidMetric);
}

TEST(MetricsRegistry, FindLocatesRegisteredNames) {
  auto registry = make_registry();
  const MetricId id = registry->gauge("tzgeo_test_backlog");
  EXPECT_EQ(registry->find("tzgeo_test_backlog"), id);
  EXPECT_EQ(registry->find("tzgeo_no_such_metric"), kInvalidMetric);
}

TEST(MetricsRegistry, UpdatesOnInvalidIdAreDropped) {
  auto registry = make_registry();
  registry->add(kInvalidMetric, 7);       // must not crash or corrupt
  registry->set(kInvalidMetric, -1);
  registry->observe(kInvalidMetric, 42);
  EXPECT_EQ(registry->size(), 0u);
}

// --- counters / gauges ----------------------------------------------------

TEST(MetricsRegistry, CounterAccumulates) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto registry = make_registry();
  const MetricId id = registry->counter("tzgeo_test_total");
  registry->add(id);
  registry->add(id, 9);
  EXPECT_EQ(registry->counter_value(id), 10u);
}

TEST(MetricsRegistry, GaugeStoresSignedValues) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto registry = make_registry();
  const MetricId id = registry->gauge("tzgeo_test_gauge");
  registry->set(id, -17);
  EXPECT_EQ(registry->gauge_value(id), -17);
  registry->set(id, 250000);
  EXPECT_EQ(registry->gauge_value(id), 250000);
}

TEST(MetricsRegistry, ConcurrentCounterIncrementsAreLossless) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto registry = make_registry();
  const MetricId id = registry->counter("tzgeo_test_total");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, id] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) registry->add(id);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry->counter_value(id), kThreads * kPerThread);
}

TEST(MetricsRegistry, RuntimeDisableQuiescesUpdates) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto registry = make_registry();
  const MetricId counter = registry->counter("tzgeo_test_total");
  const MetricId hist = registry->histogram("tzgeo_test_us");
  registry->add(counter);
  registry->set_runtime_enabled(false);
  registry->add(counter);
  registry->observe(hist, 5);
  registry->set_runtime_enabled(true);
  registry->add(counter);
  EXPECT_EQ(registry->counter_value(counter), 2u);
  EXPECT_EQ(registry->histogram_value(hist).count, 0u);
}

// --- histograms -----------------------------------------------------------

TEST(MetricsRegistry, BucketOfPowerOfTwoBoundaries) {
  // bucket_of(v) = smallest i with v <= 2^i, clamped to the +Inf bucket.
  EXPECT_EQ(MetricsRegistry::bucket_of(0), 0u);
  EXPECT_EQ(MetricsRegistry::bucket_of(1), 0u);
  EXPECT_EQ(MetricsRegistry::bucket_of(2), 1u);
  EXPECT_EQ(MetricsRegistry::bucket_of(3), 2u);
  EXPECT_EQ(MetricsRegistry::bucket_of(4), 2u);
  EXPECT_EQ(MetricsRegistry::bucket_of(5), 3u);
  EXPECT_EQ(MetricsRegistry::bucket_of(8), 3u);
  EXPECT_EQ(MetricsRegistry::bucket_of(9), 4u);
  // Exactly on the last finite bound (2^14) vs just past it.
  EXPECT_EQ(MetricsRegistry::bucket_of(std::uint64_t{1} << 14), 14u);
  EXPECT_EQ(MetricsRegistry::bucket_of((std::uint64_t{1} << 14) + 1),
            MetricsRegistry::kHistogramBuckets - 1);
  EXPECT_EQ(MetricsRegistry::bucket_of(~std::uint64_t{0}),
            MetricsRegistry::kHistogramBuckets - 1);
}

TEST(MetricsRegistry, BucketBoundsArePowersOfTwoPlusInf) {
  for (std::size_t i = 0; i + 1 < MetricsRegistry::kHistogramBuckets; ++i) {
    EXPECT_EQ(MetricsRegistry::bucket_bound(i), std::uint64_t{1} << i);
  }
  EXPECT_EQ(MetricsRegistry::bucket_bound(MetricsRegistry::kHistogramBuckets - 1),
            ~std::uint64_t{0});
}

TEST(MetricsRegistry, ObservationsLandInTheirBuckets) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto registry = make_registry();
  const MetricId id = registry->histogram("tzgeo_test_us");
  registry->observe(id, 1);    // bucket 0
  registry->observe(id, 2);    // bucket 1
  registry->observe(id, 1000);  // bucket 10 (512 < 1000 <= 1024)
  const HistogramSnapshot snapshot = registry->histogram_value(id);
  ASSERT_EQ(snapshot.buckets.size(), MetricsRegistry::kHistogramBuckets);
  EXPECT_EQ(snapshot.buckets[0], 1u);
  EXPECT_EQ(snapshot.buckets[1], 1u);
  EXPECT_EQ(snapshot.buckets[10], 1u);
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_EQ(snapshot.sum, 1003u);
}

TEST(MetricsRegistry, ApproxQuantileWalksBuckets) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto registry = make_registry();
  const MetricId id = registry->histogram("tzgeo_test_us");
  // 90 fast observations (<= 2us), 10 slow (<= 1024us).
  for (int i = 0; i < 90; ++i) registry->observe(id, 2);
  for (int i = 0; i < 10; ++i) registry->observe(id, 1000);
  const HistogramSnapshot snapshot = registry->histogram_value(id);
  EXPECT_EQ(approx_quantile(snapshot, 0.5), 2u);
  EXPECT_EQ(approx_quantile(snapshot, 0.99), 1024u);
  EXPECT_EQ(approx_quantile(HistogramSnapshot{}, 0.5), 0u);
}

// --- exporters ------------------------------------------------------------

TEST(MetricsRegistry, JsonExportRoundTripsThroughUtilJson) {
  auto registry = make_registry();
  registry->add(registry->counter("tzgeo_test_total"), 3);
  registry->set(registry->gauge("tzgeo_test_gauge"), 7);
  registry->observe(registry->histogram("tzgeo_test_us"), 4);

  // to_json() returns a util::JsonValue; its dump must match a document
  // rebuilt field-by-field from the snapshot through the same writer.
  const std::string dumped = registry->to_json().dump();
  util::JsonValue expected = util::JsonValue::object();
  util::JsonValue metrics = util::JsonValue::array();
  for (const MetricSample& sample : registry->snapshot()) {
    util::JsonValue entry = util::JsonValue::object();
    entry.set("name", util::JsonValue::string(sample.name));
    entry.set("kind", util::JsonValue::string(sample.kind == MetricKind::kCounter ? "counter"
                                              : sample.kind == MetricKind::kGauge
                                                  ? "gauge"
                                                  : "histogram"));
    if (!sample.help.empty()) entry.set("help", util::JsonValue::string(sample.help));
    if (sample.kind == MetricKind::kHistogram) {
      util::JsonValue buckets = util::JsonValue::array();
      for (const std::uint64_t count : sample.histogram.buckets) {
        buckets.push(util::JsonValue::integer(static_cast<std::int64_t>(count)));
      }
      entry.set("buckets", std::move(buckets));
      entry.set("sum",
                util::JsonValue::integer(static_cast<std::int64_t>(sample.histogram.sum)));
      entry.set("count",
                util::JsonValue::integer(static_cast<std::int64_t>(sample.histogram.count)));
    } else {
      entry.set("value", util::JsonValue::integer(static_cast<std::int64_t>(sample.value)));
    }
    metrics.push(std::move(entry));
  }
  expected.set("metrics", std::move(metrics));
  EXPECT_EQ(dumped, expected.dump());
}

TEST(MetricsRegistry, PrometheusExposition) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto registry = make_registry();
  registry->add(registry->counter("tzgeo_test_total", "a test counter"), 5);
  registry->observe(registry->histogram("tzgeo_test_us"), 3);
  const std::string text = registry->prometheus();
  EXPECT_NE(text.find("# TYPE tzgeo_test_total counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP tzgeo_test_total a test counter"), std::string::npos);
  EXPECT_NE(text.find("tzgeo_test_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tzgeo_test_us histogram"), std::string::npos);
  // Buckets are cumulative and end with +Inf == count.
  EXPECT_NE(text.find("tzgeo_test_us_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("tzgeo_test_us_sum 3"), std::string::npos);
  EXPECT_NE(text.find("tzgeo_test_us_count 1"), std::string::npos);
}

// The escaping helpers stay live under TZGEO_OBS_DISABLED (pure string
// functions), so these tests never skip.

TEST(PrometheusExposition, HelpEscapesBackslashAndNewline) {
  EXPECT_EQ(prometheus_escape_help("plain help"), "plain help");
  EXPECT_EQ(prometheus_escape_help("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(prometheus_escape_help("back\\slash"), "back\\\\slash");
  // Double-quotes are legal in HELP payloads and pass through untouched.
  EXPECT_EQ(prometheus_escape_help("say \"hi\""), "say \"hi\"");
  EXPECT_EQ(prometheus_escape_help("\\\n"), "\\\\\\n");
}

TEST(PrometheusExposition, LabelValueEscapesQuoteBackslashNewline) {
  EXPECT_EQ(prometheus_escape_label_value("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label_value("q\"uote"), "q\\\"uote");
  EXPECT_EQ(prometheus_escape_label_value("back\\slash"), "back\\\\slash");
  EXPECT_EQ(prometheus_escape_label_value("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(prometheus_escape_label_value("\"\\\n"), "\\\"\\\\\\n");
}

TEST(PrometheusExposition, SanitizeNameMapsInvalidBytes) {
  EXPECT_EQ(prometheus_sanitize_name("tzgeo_pages_total"), "tzgeo_pages_total");
  EXPECT_EQ(prometheus_sanitize_name("ns:metric"), "ns:metric");
  EXPECT_EQ(prometheus_sanitize_name("has-dash.dot"), "has_dash_dot");
  EXPECT_EQ(prometheus_sanitize_name("sp ace\tand\nnl"), "sp_ace_and_nl");
  // Digits are fine except in the lead byte; empty input yields "_".
  EXPECT_EQ(prometheus_sanitize_name("v2_total"), "v2_total");
  EXPECT_EQ(prometheus_sanitize_name("2fast"), "_fast");
  EXPECT_EQ(prometheus_sanitize_name(""), "_");
  EXPECT_EQ(prometheus_sanitize_name("\x01\xff"), "__");
}

TEST(PrometheusExposition, HostileNamesAndHelpAreEscapedInOutput) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto registry = make_registry();
  // A name with spaces/dashes and a help string with a newline: the
  // exposition must stay line-oriented and scrape-parseable.
  registry->add(registry->counter("bad name-total", "first\nsecond \\ end"), 2);
  const std::string text = registry->prometheus();
  EXPECT_NE(text.find("# TYPE bad_name_total counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP bad_name_total first\\nsecond \\\\ end"),
            std::string::npos);
  EXPECT_NE(text.find("bad_name_total 2"), std::string::npos);
  EXPECT_EQ(text.find("bad name"), std::string::npos);
  // Every emitted line is either a comment or `name value`.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    start = end + 1;
  }
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto registry = make_registry();
  const MetricId counter = registry->counter("tzgeo_test_total");
  const MetricId hist = registry->histogram("tzgeo_test_us");
  registry->add(counter, 4);
  registry->observe(hist, 4);
  registry->reset();
  EXPECT_EQ(registry->counter_value(counter), 0u);
  EXPECT_EQ(registry->histogram_value(hist).count, 0u);
  EXPECT_EQ(registry->find("tzgeo_test_total"), counter);
}

// --- spans ----------------------------------------------------------------

TEST(Trace, SameThreadNesting) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  TraceBuffer sink{64};
  {
    const ScopedSpan outer{"outer", &sink};
    const ScopedSpan inner{"inner", &sink};
    EXPECT_EQ(TraceContext::current_span(), inner.id());
  }
  EXPECT_EQ(TraceContext::current_span(), 0u);
  const std::vector<SpanRecord> spans = sink.snapshot();
  ASSERT_EQ(spans.size(), 2u);  // inner closes first
  const SpanRecord* outer = find_span(spans, "outer");
  const SpanRecord* inner = find_span(spans, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_LE(outer->start_ns, inner->start_ns);
  EXPECT_LE(inner->end_ns, outer->end_ns);
}

TEST(Trace, NestingPropagatesAcrossThreadPoolForAnyThreadCount) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    TraceBuffer sink{256};
    core::ThreadPool pool{threads};
    std::uint64_t parent_id = 0;
    {
      const ScopedSpan parent{"stage", &sink};
      parent_id = parent.id();
      pool.for_chunks(64, 8, [&sink](std::size_t, std::size_t) {
        const ScopedSpan chunk{"stage.chunk", &sink};
      });
    }
    const std::vector<SpanRecord> spans = sink.snapshot();
    std::size_t chunks = 0;
    for (const auto& span : spans) {
      if (span.name != "stage.chunk") continue;
      ++chunks;
      EXPECT_EQ(span.parent, parent_id) << "threads=" << threads;
    }
    EXPECT_GE(chunks, 1u) << "threads=" << threads;
    // The worker's adopted scope must not leak past the job.
    EXPECT_EQ(TraceContext::current_span(), 0u);
  }
}

TEST(Trace, RingBufferWrapDropsOldest) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  TraceBuffer sink{4};
  for (int i = 0; i < 6; ++i) {
    const ScopedSpan span{"span", &sink};
  }
  EXPECT_EQ(sink.recorded(), 6u);
  EXPECT_EQ(sink.dropped(), 2u);
  const std::vector<SpanRecord> spans = sink.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first: retained ids are the 4 newest, in arrival order.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LT(spans[i - 1].id, spans[i].id);
  }
}

TEST(Trace, ExportersEmitWellFormedDocuments) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  TraceBuffer sink{16};
  {
    const ScopedSpan outer{"outer", &sink};
    const ScopedSpan inner{"inner", &sink};
  }
  // The one span format: {"spans": [...]}, ns times, parent ids.
  const auto doc = util::JsonValue::parse(sink.to_json());
  ASSERT_TRUE(doc.has_value());
  const util::JsonValue* spans = doc->find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->size(), 2u);
  // Inner closes first, so it is recorded first.
  const util::JsonValue& inner = *spans->at(0);
  const util::JsonValue& outer = *spans->at(1);
  EXPECT_EQ(inner.find("name")->as_string(), "inner");
  EXPECT_EQ(outer.find("name")->as_string(), "outer");
  EXPECT_EQ(inner.find("parent")->as_integer(), outer.find("id")->as_integer());
  EXPECT_EQ(outer.find("parent")->as_integer(), 0);
  for (const util::JsonValue* span : {&inner, &outer}) {
    EXPECT_GE(span->find("end_ns")->as_integer(), span->find("start_ns")->as_integer());
    EXPECT_NE(span->find("thread"), nullptr);
  }
}

TEST(Trace, ThreadIndicesAreDense) {
  // Each distinct thread gets its own small index; the same thread keeps it.
  const std::uint32_t here = TraceContext::thread_index();
  EXPECT_EQ(TraceContext::thread_index(), here);
  std::atomic<std::uint32_t> other{0};
  std::thread worker{[&other] { other.store(TraceContext::thread_index()); }};
  worker.join();
  EXPECT_NE(other.load(), here);
}

}  // namespace
}  // namespace tzgeo::obs
