// E16: stage-latency decomposition of the distillation pipeline.
//
// Gilbert & Hamrick (quant-ph/0106043) argue the computational load of each
// distillation stage must be measured independently to judge practicality;
// BatchResult::stages makes that a direct readout. The table reports median
// wall time and mean wire traffic per stage over accepted batches at the
// paper's operating point, led by the physical layer's frame row
// (BatchResult::frame_wall_s); the benchmark kernels track the full-batch
// latency and export the frame and per-stage means as counters.
//
// A second row prices the messages: the session charges the channel's
// one-way latency once per control message, so the simulated 10 km key
// rate at 0, 0.1, 1 and 5 ms shows what each message costs the link.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/qkd/engine.hpp"

namespace {

using namespace qkd::proto;

/// Batches per table row. A batch whose sampled QBER undershoots the true
/// rate sizes Cascade's blocks too large and needs several times the
/// median's round trips, so the message means need a few dozen batches.
constexpr int kTableBatches = 32;

QkdLinkConfig operating_point(std::size_t frame_slots) {
  QkdLinkConfig config;
  config.frame_slots = frame_slots;
  return config;
}

void print_table() {
  qkd::bench::heading("E16",
                      "stage-latency decomposition of one distilled batch");
  QkdLinkSession session(operating_point(1 << 20), 2003);

  // The physical layer runs before the first stage; it is the "frame" row.
  // Wall time is the per-row median over accepted batches: the first
  // batches also pay one-time searches for GF(2^n) moduli, which would
  // swamp a mean.
  std::map<std::string, std::vector<double>> wall;
  std::map<std::string, StageStats> acc;
  std::vector<std::string> order{"frame"};
  std::size_t batches = 0;
  for (int i = 0; i < kTableBatches; ++i) {
    const BatchResult batch = session.run_batch();
    if (!batch.accepted) continue;
    ++batches;
    wall["frame"].push_back(batch.frame_wall_s);
    for (const StageStats& stage : batch.stages) {
      if (!acc.count(stage.name)) order.push_back(stage.name);
      wall[stage.name].push_back(stage.wall_s);
      StageStats& sum = acc[stage.name];
      sum.control_messages += stage.control_messages;
      sum.control_bytes += stage.control_bytes;
    }
  }
  if (batches == 0) return;
  qkd::bench::row("%-24s %14s %10s %12s", "stage", "median wall us",
                  "msgs", "wire bytes");
  double total_wall = 0.0;
  std::string slowest = order.front(), chattiest = order.front();
  for (const std::string& name : order) {
    std::vector<double>& samples = wall[name];
    std::sort(samples.begin(), samples.end());
    StageStats& sum = acc[name];
    sum.wall_s = samples[samples.size() / 2];
    total_wall += sum.wall_s;
    if (sum.wall_s > acc[slowest].wall_s) slowest = name;
    if (sum.control_messages > acc[chattiest].control_messages)
      chattiest = name;
    qkd::bench::row("%-24s %14.1f %10.1f %12.1f", name.c_str(),
                    1e6 * sum.wall_s,
                    static_cast<double>(sum.control_messages) /
                        static_cast<double>(batches),
                    static_cast<double>(sum.control_bytes) /
                        static_cast<double>(batches));
  }
  qkd::bench::row("");
  // Named from the rows above, so the sentence follows the measurement.
  qkd::bench::row("largest measured row: %s, %.0f%% of the median batch's "
                  "wall time; most messages: %s",
                  slowest.c_str(), 100.0 * acc[slowest].wall_s / total_wall,
                  chattiest.c_str());
}

void print_latency_row() {
  qkd::bench::row("");
  qkd::bench::row("simulated 10 km key rate vs one-way classical latency "
                  "(%d batches, seed 2003)", kTableBatches);
  qkd::bench::row("%-24s %14s %10s %12s", "latency ms", "key bit/s",
                  "msgs/batch", "stall s/batch");
  for (double latency_ms : {0.0, 0.1, 1.0, 5.0}) {
    QkdLinkSession session(operating_point(1 << 20), 2003);
    qkd::net::ClassicalConditions conditions;
    conditions.latency = qkd::seconds_to_sim(latency_ms * 1e-3);
    session.channel().set_conditions(conditions);
    std::size_t messages = 0;
    double stall_s = 0.0;
    for (int i = 0; i < kTableBatches; ++i) {
      const BatchResult batch = session.run_batch();
      messages += batch.control_messages;
      stall_s += batch.wire_stall_s;
    }
    qkd::bench::row("%-24.1f %14.1f %10.1f %12.3f", latency_ms,
                    session.totals().distilled_rate_bps(),
                    static_cast<double>(messages) / kTableBatches,
                    stall_s / kTableBatches);
  }
}

/// Full-batch latency with per-stage means exported as counters, so a
/// regression in any one stage is visible without re-deriving the split.
void bm_pipeline_stages(benchmark::State& state) {
  QkdLinkSession session(
      operating_point(static_cast<std::size_t>(state.range(0))), 17);
  std::map<std::string, double> stage_wall;
  std::size_t batches = 0;
  for (auto _ : state) {
    const BatchResult batch = session.run_batch();
    benchmark::DoNotOptimize(batch.distilled_bits);
    ++batches;
    stage_wall["frame"] += batch.frame_wall_s;
    for (const StageStats& stage : batch.stages)
      stage_wall[stage.name] += stage.wall_s;
  }
  for (const auto& [name, wall] : stage_wall) {
    std::string label("s_");
    label.append(name);
    state.counters[label] = wall / static_cast<double>(batches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.range(0)) *
                          state.iterations());
}
BENCHMARK(bm_pipeline_stages)->Arg(1 << 18)->Arg(1 << 20);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_table();
  print_latency_row();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
