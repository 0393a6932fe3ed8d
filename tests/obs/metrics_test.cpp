// MetricsRegistry: instrument identity and kind collision, sharded-cell
// aggregation, histogram quantile convention, collectors, and the
// Prometheus exposition shape.
#include "src/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace qkd::obs {
namespace {

TEST(MetricsRegistry, InstrumentsAreFoundOrCreatedByName) {
  MetricsRegistry registry;
  Counter& a = registry.counter("kms_grants");
  Counter& b = registry.counter("kms_grants");
  EXPECT_EQ(&a, &b) << "same name resolves to the same instrument";
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
}

TEST(MetricsRegistry, NameCollisionAcrossKindsThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x"), std::invalid_argument);
}

TEST(MetricsRegistry, CellsAggregateOnRead) {
  MetricsRegistry registry(4);
  Counter& counter = registry.counter("per_shard");
  counter.add(10, 0);
  counter.add(20, 1);
  counter.add(30, 3);
  EXPECT_EQ(counter.value(), 60u);
  EXPECT_EQ(counter.cell_value(1), 20u);
  // Out-of-range cells clamp to the last cell rather than writing wild.
  counter.add(1, 99);
  EXPECT_EQ(counter.cell_value(3), 31u);

  Gauge& gauge = registry.gauge("depth");
  gauge.set(5, 0);
  gauge.set(-2, 2);
  EXPECT_EQ(gauge.value(), 3);
}

TEST(MetricsRegistry, HistogramQuantilesAreConservativeUpperBounds) {
  MetricsRegistry registry(2);
  Histogram& histogram = registry.histogram("latency_ns");
  for (int i = 0; i < 99; ++i) histogram.record(100, i % 2);
  histogram.record(1'000'000);
  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_EQ(histogram.sum(), 99u * 100u + 1'000'000u);
  // 100 lands in bucket bit_width(100)=7 whose upper bound is 128.
  EXPECT_DOUBLE_EQ(histogram.quantile(0.50), 128.0);
  EXPECT_GE(histogram.quantile(1.0), 1'000'000.0);
}

TEST(MetricsRegistry, CollectorsReportIntoSnapshots) {
  MetricsRegistry registry;
  registry.counter("direct").add(7);
  std::uint64_t granted = 41;
  registry.add_collector([&granted](MetricsRegistry::Collect& out) {
    out.counter("kms_granted", granted);
    out.gauge("kms_queue_depth", 3.5);
  });
  granted = 42;

  const auto samples = registry.snapshot();
  bool saw_direct = false, saw_granted = false, saw_gauge = false;
  for (const MetricSample& sample : samples) {
    if (sample.name == "direct") {
      saw_direct = true;
      EXPECT_EQ(sample.value, 7.0);
    }
    if (sample.name == "kms_granted") {
      saw_granted = true;
      EXPECT_EQ(sample.value, 42.0) << "collectors read at snapshot time";
    }
    if (sample.name == "kms_queue_depth") {
      saw_gauge = true;
      EXPECT_EQ(sample.kind, MetricKind::kGauge);
    }
  }
  EXPECT_TRUE(saw_direct);
  EXPECT_TRUE(saw_granted);
  EXPECT_TRUE(saw_gauge);
}

TEST(MetricsRegistry, PrometheusTextHasTypeLinesAndHistogramSeries) {
  MetricsRegistry registry;
  registry.counter("qkd_batches").add(3);
  registry.gauge("pool_bits").set(1024);
  registry.histogram("grant_ns").record(500);

  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE qkd_batches counter"), std::string::npos) << text;
  EXPECT_NE(text.find("qkd_batches 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pool_bits gauge"), std::string::npos);
  EXPECT_NE(text.find("grant_ns_count 1"), std::string::npos);
  EXPECT_NE(text.find("grant_ns_sum 500"), std::string::npos);
}

TEST(MetricsRegistry, EmptyHistogramQuantilesAreZero) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("untouched");
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0u);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 0.0);
  // The export path carries the same convention instead of dividing by a
  // zero count.
  for (const MetricSample& sample : registry.snapshot()) {
    EXPECT_DOUBLE_EQ(sample.p50, 0.0);
    EXPECT_DOUBLE_EQ(sample.p99, 0.0);
  }
}

TEST(MetricsRegistry, SingleBucketHistogramAnswersEveryQuantile) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("constant");
  for (int i = 0; i < 1000; ++i) histogram.record(100);
  // All mass in bucket bit_width(100)=7 (upper bound 128): every quantile
  // — including q=0, whose rank clamps to 1 — reports that bound.
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), 128.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 128.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 128.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 128.0);

  // Value 0 has bit_width 0: the zero bucket reports bound 0.
  Histogram& zeros = registry.histogram("zeros");
  zeros.record(0);
  EXPECT_DOUBLE_EQ(zeros.quantile(0.99), 0.0);
  EXPECT_EQ(zeros.count(), 1u);
}

TEST(MetricsRegistry, CollectorReRegistrationUnderTheSameNameAccumulates) {
  // Two layers reporting under one name is a wiring bug the registry
  // surfaces rather than hides: both samples appear in the snapshot (same
  // name, their own values), matching the find-or-create contract of the
  // direct instruments rather than silently dropping one reporter. Readers
  // that key by name (the alert engine, the timeline) throw on it.
  MetricsRegistry registry;
  registry.add_collector([](MetricsRegistry::Collect& out) {
    out.counter("dup_reported", 1);
  });
  registry.add_collector([](MetricsRegistry::Collect& out) {
    out.counter("dup_reported", 2);
  });
  std::size_t seen = 0;
  for (const MetricSample& sample : registry.snapshot())
    if (sample.name == "dup_reported") ++seen;
  EXPECT_EQ(seen, 2u);

  // A collector name colliding with a direct instrument also keeps both:
  // the direct value and the reported value are distinct samples.
  registry.counter("dup_reported").add(10);
  seen = 0;
  for (const MetricSample& sample : registry.snapshot())
    if (sample.name == "dup_reported") ++seen;
  EXPECT_EQ(seen, 3u);
  EXPECT_THROW(require_unique_names(registry.snapshot(), "reader"),
               std::logic_error);
}

TEST(MetricsRegistry, FindHistogramNeverCreatesAndChecksKind) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.find_histogram("absent"), nullptr);
  EXPECT_EQ(registry.snapshot().size(), 0u) << "find never creates";
  registry.counter("a_counter");
  EXPECT_EQ(registry.find_histogram("a_counter"), nullptr)
      << "wrong kind is not a histogram";
  Histogram& histogram = registry.histogram("real");
  EXPECT_EQ(registry.find_histogram("real"), &histogram);
}

TEST(MetricsRegistry, ConcurrentCellWritersAndOneReaderAreRaceFree) {
  MetricsRegistry registry(4);
  Counter& counter = registry.counter("hot");
  std::vector<std::thread> writers;
  for (std::size_t lane = 0; lane < 4; ++lane)
    writers.emplace_back([&counter, lane] {
      for (int i = 0; i < 20000; ++i) counter.add(1, lane);
    });
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t now = counter.value();
    ASSERT_GE(now, last);
    last = now;
  }
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(counter.value(), 80000u);
}

}  // namespace
}  // namespace qkd::obs
