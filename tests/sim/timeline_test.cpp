// TimelineRecorder used standalone (its own sampling event on a scheduler,
// no ScenarioRunner): series shape, stop(), annotations and rendering.
#include "src/sim/timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/network/key_transport.hpp"
#include "src/obs/metrics.hpp"

namespace qkd::sim {
namespace {

std::vector<std::string> csv_lines(const std::string& csv) {
  std::vector<std::string> lines;
  for (std::size_t start = 0; start < csv.size();) {
    const std::size_t end = csv.find('\n', start);
    lines.push_back(csv.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::ptrdiff_t commas(const std::string& line) {
  return std::count(line.begin(), line.end(), ',');
}

TEST(TimelineRecorder, SamplesMeshPeriodicallyUntilStopped) {
  network::MeshSimulation mesh(network::Topology::star(3), 1);
  SimClock clock;
  EventScheduler sched(clock);
  // Distillation on the same timeline the recorder samples.
  sched.every(kSecond, kSecond, [&mesh](SimTime) { mesh.step(1.0); });

  obs::MetricsRegistry registry;
  mesh.bind_metrics(registry, "mesh");
  TimelineRecorder recorder(registry);
  recorder.start(sched, 2 * kSecond);
  sched.run_until(10 * kSecond);
  ASSERT_EQ(recorder.points().size(), 5u);  // t = 2, 4, 6, 8, 10
  EXPECT_EQ(recorder.points().front().t, 2 * kSecond);
  EXPECT_EQ(recorder.points().back().t, 10 * kSecond);
  // Every mesh link is in the sample, and no more.
  const std::string last_link =
      "mesh_link" + std::to_string(mesh.topology().link_count() - 1);
  EXPECT_TRUE(recorder.points().front().find(last_link + "_pool_bits"));
  EXPECT_TRUE(recorder.points().front().find(last_link + "_usable"));
  EXPECT_FALSE(recorder.points().front().find(
      "mesh_link" + std::to_string(mesh.topology().link_count()) +
      "_pool_bits"));

  const auto series = recorder.series("mesh_link0_pool_bits");
  ASSERT_EQ(series.size(), 5u);
  EXPECT_GT(series.front(), 0.0);
  EXPECT_GT(series.back(), series.front()) << "pools grow across samples";

  recorder.stop();
  sched.run_until(20 * kSecond);
  EXPECT_EQ(recorder.points().size(), 5u) << "stop() cancels the sampling";
}

TEST(TimelineRecorder, DoubleStartThrowsAndRestartAfterStopWorks) {
  SimClock clock;
  EventScheduler sched(clock);
  obs::MetricsRegistry registry;
  TimelineRecorder recorder(registry);
  recorder.start(sched, kSecond);
  EXPECT_THROW(recorder.start(sched, kSecond), std::logic_error);
  recorder.stop();
  recorder.start(sched, kSecond);  // re-arming after stop is fine
  sched.run_until(3 * kSecond);
  EXPECT_EQ(recorder.points().size(), 3u);
}

TEST(TimelineRecorder, ToCsvExportsOneRowPerSampleWithStableHeader) {
  network::MeshSimulation mesh(network::Topology::star(3), 4);
  SimClock clock;
  EventScheduler sched(clock);
  sched.every(kSecond, kSecond, [&mesh](SimTime) { mesh.step(1.0); });
  obs::MetricsRegistry registry;
  mesh.bind_metrics(registry, "mesh");
  TimelineRecorder recorder(registry);
  recorder.start(sched, kSecond);
  recorder.note(1500 * kMillisecond, "notes stay out of the CSV");
  sched.run_until(4 * kSecond);

  const std::string csv = recorder.to_csv();
  // Header names every sample in name order: the per-link columns first,
  // then the mesh counters.
  EXPECT_EQ(csv.rfind("t_s,mesh_link0_pool_bits,mesh_link0_qber_percent,"
                      "mesh_link0_usable,",
                      0),
            0u);
  EXPECT_NE(csv.find("mesh_link2_usable"), std::string::npos);
  EXPECT_NE(csv.find("mesh_reroutes"), std::string::npos);
  EXPECT_EQ(csv.find("notes stay out"), std::string::npos);

  // One row per sample plus the header, every row with the same arity.
  const std::vector<std::string> lines = csv_lines(csv);
  ASSERT_EQ(lines.size(), recorder.points().size() + 1);
  for (const std::string& line : lines)
    EXPECT_EQ(commas(line), commas(lines[0])) << line;

  // First data row: t=1 s, link pools grown past zero, link usable.
  EXPECT_EQ(lines[1].rfind("1.000000,", 0), 0u);
  EXPECT_GT(recorder.points().front().find("mesh_link0_pool_bits"), 0.0);
  EXPECT_EQ(recorder.points().front().find("mesh_link0_usable"), 1.0);
  EXPECT_NE(lines[1].find(",1,"), std::string::npos);

  // An empty recorder still emits a parseable header.
  EXPECT_EQ(TimelineRecorder(obs::MetricsRegistry()).to_csv(), "t_s\n");
}

TEST(TimelineRecorder, ToCsvPadsRowsWhenASourceAttachesMidSeries) {
  // stop() + restart keeps old points; a collector bound in between
  // widens later samples. The CSV must stay rectangular: the union of
  // columns in the header, zeros where an early sample had no source.
  network::MeshSimulation mesh(network::Topology::star(2), 5);
  SimClock clock;
  EventScheduler sched(clock);
  obs::MetricsRegistry registry;
  TimelineRecorder recorder(registry);
  recorder.start(sched, kSecond);
  sched.run_until(2 * kSecond);  // two sourceless samples
  recorder.stop();
  mesh.bind_metrics(registry, "mesh");
  mesh.step(1.0);
  recorder.start(sched, kSecond);
  sched.run_until(4 * kSecond);  // two mesh-backed samples

  const std::string csv = recorder.to_csv();
  EXPECT_NE(csv.find("mesh_link1_usable"), std::string::npos);
  const std::vector<std::string> lines = csv_lines(csv);
  ASSERT_EQ(lines.size(), 5u);  // header + 4 samples
  for (const std::string& line : lines)
    EXPECT_EQ(commas(line), commas(lines[0])) << line;
  std::string zeros = "1.000000";
  for (std::ptrdiff_t i = 0; i < commas(lines[0]); ++i) zeros += ",0";
  EXPECT_EQ(lines[1], zeros) << "pre-attachment rows zero-padded";
  EXPECT_NE(lines[4].find(",1,"), std::string::npos)
      << "post-attachment rows carry the mesh's values";
}

TEST(TimelineRecorder, SeriesReadsOneNameAcrossSamples) {
  obs::MetricsRegistry registry;
  obs::Gauge& depth = registry.gauge("queue_depth");
  SimClock clock;
  EventScheduler sched(clock);
  TimelineRecorder recorder(registry);
  sched.every(kSecond, kSecond, [&depth](SimTime t) {
    depth.set(t / kSecond);  // set before the sample at the same instant
  });
  recorder.start(sched, kSecond);
  sched.run_until(3 * kSecond);
  EXPECT_EQ(recorder.series("queue_depth"),
            (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(recorder.series("not_a_metric"),
            (std::vector<double>{0.0, 0.0, 0.0}));
  EXPECT_EQ(recorder.points()[1].find("queue_depth"), 2.0);
  EXPECT_FALSE(recorder.points()[1].find("not_a_metric").has_value());
}

TEST(TimelineRecorder, ToCsvQuotesLabelledNames) {
  obs::MetricsRegistry registry;
  registry.gauge("queue_depth").set(4);
  registry.add_collector([](obs::MetricsRegistry::Collect& out) {
    out.gauge("ALERTS{alertname=\"qber\",alertstate=\"firing\"}", 1.0);
  });
  TimelineRecorder recorder(registry);
  recorder.sample(kSecond);
  EXPECT_EQ(recorder.to_csv(),
            "t_s,\"ALERTS{alertname=\"\"qber\"\",alertstate=\"\"firing\"\"}\","
            "queue_depth\n"
            "1.000000,1,4\n");
}

TEST(TimelineRecorder, ANameReportedTwiceThrows) {
  obs::MetricsRegistry registry;
  registry.add_collector([](obs::MetricsRegistry::Collect& out) {
    out.gauge("mesh_link0_pool_bits", 1.0);
  });
  registry.add_collector([](obs::MetricsRegistry::Collect& out) {
    out.gauge("mesh_link0_pool_bits", 2.0);
  });
  TimelineRecorder recorder(registry);
  try {
    recorder.sample(kSecond);
    FAIL() << "a duplicated name must not be sampled silently";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("mesh_link0_pool_bits"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(recorder.points().empty());
}

TEST(TimelineRecorder, RenderInterleavesNotesWithSamples) {
  network::MeshSimulation mesh(network::Topology::star(2), 2);
  SimClock clock;
  EventScheduler sched(clock);
  obs::MetricsRegistry registry;
  mesh.bind_metrics(registry, "mesh");
  TimelineRecorder recorder(registry);
  recorder.start(sched, kSecond);
  recorder.note(1500 * kMillisecond, "backhoe sighted");
  sched.run_until(3 * kSecond);
  const std::string out = recorder.render();
  EXPECT_NE(out.find("backhoe sighted"), std::string::npos);
  // The note lands between the t=1 s and t=2 s sample lines.
  EXPECT_LT(out.find("t=     1.0s"), out.find("backhoe sighted"));
  EXPECT_LT(out.find("backhoe sighted"), out.find("t=     2.0s"));
  // The first sample line prints every value; later lines print only what
  // changed (the mesh never steps here, so nothing does).
  const std::size_t first = out.find("t=     1.0s");
  const std::string first_line =
      out.substr(first, out.find('\n', first) - first);
  EXPECT_NE(first_line.find(" mesh_link0_usable=1"), std::string::npos)
      << first_line;
  const std::size_t second = out.find("t=     2.0s");
  EXPECT_EQ(out.substr(second, out.find('\n', second) - second),
            "t=     2.0s ");
}

}  // namespace
}  // namespace qkd::sim
