// keybench: builds one workload, times it and prints its metrics.
//
//   keybench --workload distill|kms-fleet|e2e --seed N --seconds S
//            --trace 0|1 [--steps N]
//
// Output: "# context {...}" (build, machine and workload parameters),
// "# model {...}" (the seed-determined model outputs: counts, simulated
// rates and latencies), "# wall {...}" (the wall-clock rates and the
// reference job's times, untraced runs only) and, last, one JSON object
// with the keys correct, attempted, failed and metrics. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones. A run whose output
// checks fail reports correct=false with no metrics and exits 1.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "keybench/src/harness.hpp"

#ifndef KEYBENCH_BUILD_TYPE
#define KEYBENCH_BUILD_TYPE "unknown"
#endif
#ifndef KEYBENCH_COMPILER
#define KEYBENCH_COMPILER "unknown"
#endif
#ifndef KEYBENCH_CXX_FLAGS
#define KEYBENCH_CXX_FLAGS ""
#endif

namespace keybench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 25;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "keybench: %s\nusage: keybench --workload distill|kms-fleet|e2e "
               "--seed N --seconds S --trace 0|1 [--steps N]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--steps") {
        options.steps = std::stoull(value);
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

std::unique_ptr<Workload> make(const Options& options) {
  if (options.workload == "distill") return make_distill(options);
  if (options.workload == "kms-fleet") return make_kms_fleet(options);
  if (options.workload == "e2e") return make_e2e(options);
  usage(("unknown workload " + options.workload).c_str());
}

std::string json_string(const std::string& text) {
  std::string out;
  out.push_back('"');
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Comma-separated "key": value members of a JSON object, in order.
class JsonMembers {
 public:
  JsonMembers& add(const std::string& key, const std::string& raw_value) {
    if (out_.tellp() > 0) out_ << ", ";
    out_ << json_string(key) << ": " << raw_value;
    return *this;
  }
  std::string object() const {
    std::string out(1, '{');
    out += out_.str();
    out.push_back('}');
    return out;
  }

 private:
  std::ostringstream out_;
};

/// Peak resident set of this process image. VmHWM starts afresh at exec,
/// unlike getrusage's ru_maxrss, which keeps the launcher's pre-exec peak.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(status);
  return kib / 1024.0;
}

/// Ref seconds per wall second over a stretch bracketed by two reference
/// jobs of `before_s` and `after_s` wall seconds.
double ref_scale(double before_s, double after_s) {
  return kReferenceJobS / (0.5 * (before_s + after_s));
}

struct Measured {
  std::vector<double> op_ref_ms;  // untraced steps only, in ref ms
  // Per untraced block: simulated seconds per ref second and per wall
  // second. The rate metrics are medians over blocks: the reference jobs
  // take out the machine's drift, the median what is left of bursts.
  std::vector<double> block_sim_rate;
  std::vector<double> block_wall_sim_rate;
  std::vector<double> reference_s;  // every reference job's wall time
  double untraced_wall_s = 0.0;
  double untraced_sim_s = 0.0;
  double untraced_key_bits = 0.0;
  double traced_sim_s = 0.0;
  RunWall wall;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t steps = 0;
};

Measured measure(Workload& workload, const Options& options) {
  Spans& spans = workload.spans();
  spans.set_enabled(false);
  for (std::size_t i = 0; i < workload.warmup_steps(); ++i) workload.step();
  Reference reference;
  workload.begin_measurement();

  Measured out;
  double ref_before = reference.run();
  out.reference_s.push_back(ref_before);
  std::vector<double> block_op_s;
  const Clock::time_point start = Clock::now();
  for (std::size_t block = 0;; ++block) {
    const bool traced = options.trace && block % 2 == 1;
    spans.set_enabled(traced);
    double block_wall = 0.0;
    double block_sim = 0.0;
    double block_bits = 0.0;
    block_op_s.clear();
    for (std::size_t i = 0; i < workload.block_steps(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const StepOutcome step = workload.step();
      const double wall = seconds_since(t0);
      block_wall += wall;
      block_sim += step.sim_s;
      block_bits += step.key_bits;
      out.attempted += step.attempted;
      out.failed += step.failed;
      ++out.steps;
      block_op_s.push_back(step.op_s >= 0.0 ? step.op_s : wall);
      if (options.steps != 0 && out.steps >= options.steps) break;
    }
    spans.set_enabled(false);
    const double ref_after = reference.run();
    out.reference_s.push_back(ref_after);
    const double scale = ref_scale(ref_before, ref_after);
    ref_before = ref_after;
    out.wall.measured_s += block_wall;
    if (traced) {
      out.wall.traced_s += block_wall;
      out.traced_sim_s += block_sim;
      workload.fold(spans.drain());
    } else if (block_wall > 0.0) {
      out.untraced_wall_s += block_wall;
      out.untraced_sim_s += block_sim;
      out.untraced_key_bits += block_bits;
      out.block_sim_rate.push_back(block_sim / (block_wall * scale));
      out.block_wall_sim_rate.push_back(block_sim / block_wall);
      for (double op_s : block_op_s)
        out.op_ref_ms.push_back(op_s * scale * 1e3);
    }
    if (options.steps != 0) {
      if (out.steps >= options.steps) break;
      continue;
    }
    const bool both_kinds = !options.trace || block >= 1;
    if (both_kinds && seconds_since(start) >= options.seconds) break;
  }
  workload.settle(out.attempted, out.failed);
  return out;
}

int run(const Options& options) {
  // Set-up is timed several times, each build between two reference jobs;
  // the median in ref seconds is setup_s. Only the last build is measured.
  Reference reference;
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::unique_ptr<Workload> workload;
  double ref_before = reference.run();
  for (int i = 0; i < kSetupRepeats; ++i) {
    workload.reset();
    const Clock::time_point t0 = Clock::now();
    workload = make(options);
    const double wall = seconds_since(t0);
    const double ref_after = reference.run();
    setup_wall_s.push_back(wall);
    setup_s.push_back(wall * ref_scale(ref_before, ref_after));
    ref_before = ref_after;
  }

  JsonMembers params;
  for (const auto& [key, value] : workload->params())
    params.add(key, json_string(value));
  JsonMembers context;
  context.add("workload", json_string(options.workload))
      .add("seed", std::to_string(options.seed))
      .add("seconds", json_number(options.seconds))
      .add("steps", std::to_string(options.steps))
      .add("trace", options.trace ? "1" : "0")
      .add("build_type", json_string(KEYBENCH_BUILD_TYPE))
      .add("compiler", json_string(KEYBENCH_COMPILER))
      .add("cxx_flags", json_string(KEYBENCH_CXX_FLAGS))
      .add("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)))
      .add("params", params.object());
  std::printf("# context %s\n", context.object().c_str());

  const Measured m = measure(*workload, options);
  std::string why;
  MetricMap model;
  MetricMap layers;
  const bool correct = workload->finish(why, model, layers, m.wall);

  JsonMembers model_line;
  for (const auto& [name, value] : model) model_line.add(name, json_number(value));
  std::printf("# model %s\n", model_line.object().c_str());

  if (!correct) {
    std::printf("# check failed: %s\n", why.c_str());
    std::printf(
        "{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {}}\n",
        static_cast<unsigned long long>(m.attempted),
        static_cast<unsigned long long>(m.failed));
    return 1;
  }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  if (!options.trace) {
    const double sim_rate = median(m.block_sim_rate);
    const double key_bits_per_sim_s =
        ratio(m.untraced_key_bits, m.untraced_sim_s);
    // The tail is informational: at ~120 samples a run (e2e) it moves too
    // much from run to run to carry a regression bound.
    const double tail_p = tail_percentile(m.op_ref_ms.size());
    std::printf("# operation latency: %zu samples, p50 %s, p%g %s ref ms\n",
                m.op_ref_ms.size(),
                json_number(percentile(m.op_ref_ms, 50.0)).c_str(), tail_p,
                json_number(percentile(m.op_ref_ms, tail_p)).c_str());
    std::printf("# rates: median of %zu blocks of %zu steps\n",
                m.block_sim_rate.size(), workload->block_steps());
    std::printf(
        "# wall {\"setup_wall_s\": %s, \"sim_s_per_wall_s\": %s, "
        "\"key_bits_per_wall_s\": %s, \"reference_jobs\": %zu, "
        "\"reference_p50_s\": %s, \"reference_min_s\": %s, "
        "\"reference_max_s\": %s}\n",
        json_number(median(setup_wall_s)).c_str(),
        json_number(median(m.block_wall_sim_rate)).c_str(),
        json_number(median(m.block_wall_sim_rate) * key_bits_per_sim_s)
            .c_str(),
        m.reference_s.size(), json_number(median(m.reference_s)).c_str(),
        json_number(percentile(m.reference_s, 0.0)).c_str(),
        json_number(percentile(m.reference_s, 100.0)).c_str());
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"sim_s_per_ref_s", sim_rate, "s/s"},
        {"key_bits_per_ref_s", sim_rate * key_bits_per_sim_s, "bit/s"},
        {"op_p50_ref_ms", percentile(m.op_ref_ms, 50.0), "ms"},
        {"served_frac",
         m.attempted > 0 ? 1.0 - static_cast<double>(m.failed) /
                                     static_cast<double>(m.attempted)
                         : 0.0,
         "frac"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const double untraced_rate =
        m.untraced_wall_s > 0.0 ? m.untraced_sim_s / m.untraced_wall_s : 0.0;
    const double traced_rate =
        m.wall.traced_s > 0.0 ? m.traced_sim_s / m.wall.traced_s : 0.0;
    layers["trace.wall_s"] = m.wall.traced_s;
    layers["trace.overhead_frac"] =
        untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0;
    for (const LayerMetric& metric : layer_metrics()) {
      const auto it = layers.find(metric.name);
      metrics.push_back(
          {metric.name, it == layers.end() ? 0.0 : it->second, metric.unit});
    }
  }

  JsonMembers values;
  for (const Metric& metric : metrics)
    values.add(metric.name, JsonMembers()
                                .add("value", json_number(metric.value))
                                .add("unit", json_string(metric.unit))
                                .object());
  JsonMembers result;
  result.add("correct", "true")
      .add("attempted", std::to_string(m.attempted))
      .add("failed", std::to_string(m.failed))
      .add("metrics", values.object());
  std::printf("%s\n", result.object().c_str());
  return 0;
}

}  // namespace
}  // namespace keybench

int main(int argc, char** argv) {
  const keybench::Options options = keybench::parse(argc, argv);
  try {
    return keybench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "keybench: %s\n", error.what());
    return 1;
  }
}
