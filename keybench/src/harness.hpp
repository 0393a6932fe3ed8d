// The keybench harness: one process runs one workload of the key path for
// a fixed wall-clock budget and prints every metric by name.
//
// A workload is a loop of steps (one fan-out round, one scheduler window,
// one wire get_key plus its claim). The harness builds the workload several
// times (the median build time is setup_s), warms it up, then times steps
// until the budget is spent. Between blocks of steps (and between builds)
// it times a fixed reference job, and reports end-to-end times in ref
// seconds: wall seconds with the machine's momentary speed taken out (see
// Reference). With tracing on, alternate blocks of steps run
// with the benchmark's tracer enabled: the traced blocks give the per-layer
// table, the untraced ones the baseline the tracing overhead is taken
// against. All spans are recorded by the benchmark around public calls of
// the stack (and by a delegating PipelineStage around each protocol stage);
// nothing inside the stack is instrumented for it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/kms/kms.hpp"
#include "src/network/key_service.hpp"
#include "src/obs/trace.hpp"
#include "src/qkd/engine.hpp"
#include "src/qkd/pipeline.hpp"

namespace keybench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fixed step count instead of a wall-clock budget (0: use `seconds`).
  /// Fixed-work runs make every model output a pure function of the seed.
  std::size_t steps = 0;
};

/// What one step of a workload did, as the consumers of key saw it.
struct StepOutcome {
  /// Wall time of the consumer operation the step performs, when that is
  /// only part of the step (e2e: the wire call, not the think time before
  /// it); negative means the whole step.
  double op_s = -1.0;
  double sim_s = 0.0;           // simulated time the step advanced
  double key_bits = 0.0;        // key bits that reached a consumer
  std::uint64_t attempted = 0;  // consumer operations attempted
  std::uint64_t failed = 0;     // ...that failed (aborted, refused, lost)
};

/// Metric name -> value, in print order.
using MetricMap = std::map<std::string, double>;

/// Wall time of the measured steps, and of the traced ones among them.
struct RunWall {
  double measured_s = 0.0;
  double traced_s = 0.0;
};

// ---- Benchmark-side tracing -------------------------------------------------

/// The benchmark's tracer plus the parenting rule its spans follow: a span
/// nests under the innermost benchmark span open on the same thread, or —
/// on a worker lane with nothing open — under the root installed with
/// set_root (the fan-out that dispatched the lane's work).
class Spans {
 public:
  /// `cells` tracer cells; the constructing thread records into cell 0 and
  /// every other thread gets the next free cell on its first span.
  explicit Spans(std::size_t cells);

  qkd::obs::Tracer& tracer() { return tracer_; }
  bool on() const { return tracer_.enabled(); }
  void set_enabled(bool on) { tracer_.set_enabled(on); }

  /// Parent for spans opened on threads with no open benchmark span. Set
  /// on the dispatching thread before fan-out; the pool's dispatch
  /// publishes it to the lanes.
  void set_root(qkd::obs::TraceContext root) { root_ = root; }
  qkd::obs::TraceContext root() const { return root_; }

  /// Copies out and forgets every span recorded so far.
  std::vector<qkd::obs::Span> drain();

  /// The calling thread's tracer cell.
  std::size_t cell();

 private:
  qkd::obs::Tracer tracer_;
  qkd::obs::TraceContext root_;
  const std::uint64_t generation_;  // tells this Spans from earlier ones
  std::mutex cells_mu_;
  std::map<std::thread::id, std::size_t> cells_;  // guarded by cells_mu_
};

/// RAII span under the parenting rule above; inert while tracing is off.
class Scope {
 public:
  Scope(Spans& spans, const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// This span's context (invalid while tracing is off).
  qkd::obs::TraceContext context() const {
    return span_ ? span_->context() : qkd::obs::TraceContext{};
  }

 private:
  std::optional<qkd::obs::ScopedSpan> span_;
  bool pushed_ = false;
};

/// Per-name totals over a batch of spans: summed duration, summed self
/// time (duration minus the direct children recorded in the same cell) and
/// span count.
struct SpanTotals {
  std::map<std::string, double> total_s;
  std::map<std::string, double> self_s;
  std::map<std::string, std::uint64_t> count;

  void add(const std::vector<qkd::obs::Span>& spans);
  double total(const std::string& name) const;
  double self(const std::string& name) const;
};

double span_seconds(const qkd::obs::Span& span);

// ---- Stage probes -----------------------------------------------------------

/// Per-link protocol counters the stage probes collect. One link's probes
/// run on one lane at a time, so a tally needs no synchronization; read it
/// only with the link's work quiesced.
struct StageTally {
  std::uint64_t detections = 0;
  std::vector<std::uint64_t> messages;  // per stage index
  std::vector<std::uint64_t> bytes;     // per stage index
};

/// Replaces `session`'s pipeline with the default stages, each wrapped in a
/// delegating stage that records a "qkd.<stage>" span and its wire traffic.
void install_stage_probes(qkd::proto::QkdLinkSession& session,
                          StageTally& tally, Spans& spans);

/// The links' tallies summed, minus the same sum at `base`.
StageTally tally_since(const std::vector<StageTally>& now,
                       const std::vector<StageTally>& base);

/// Session totals summed over every link of a service.
struct LinkTotals {
  std::uint64_t batches = 0;
  std::uint64_t accepted = 0;
  std::uint64_t sifted = 0;
  std::uint64_t distilled = 0;
  std::uint64_t min_distilled = 0;  // the leanest link's distilled bits
  double link_s = 0.0;              // simulated link time, summed

  static LinkTotals of(const qkd::network::LinkKeyService& service);
  /// Counts accrued since `base` (min_distilled is not a difference: 0).
  LinkTotals since(const LinkTotals& base) const;
  /// Distilled bits per simulated link-second.
  double rate_bps() const;
};

/// Fills the qkd.* metrics and optics.detections of an engine workload.
void add_qkd_layers(MetricMap& layers, const LinkTotals& run,
                    const StageTally& tally, const SpanTotals& spans);

/// Checks that every KMS endpoint pair's two stores agree on available bits
/// and next key id; on a mismatch names the pair in `why`.
bool pairs_in_lockstep(const qkd::kms::KeyManagementService& kms,
                       std::string& why);

/// num / den, 0 when den is 0.
double ratio(double num, double den);

/// Wegman-Carter pad runway the engine workloads preposition. At the
/// default operating point a link spends ~75 more pad bits per batch than
/// AuthReplenishStage returns, so the stack's default 8 kbit runway runs
/// out after ~110 batches and every later batch aborts (kAuthExhausted).
/// One Mbit covers over ten thousand batches per link: far past any run.
inline constexpr std::size_t kPrepositionedPadBits = std::size_t{1} << 20;

/// Names of the default pipeline's stages, in order.
const std::vector<std::string>& stage_names();

// ---- Machine-speed reference ------------------------------------------------

/// A fixed job timed between blocks of steps: one mock 2^20-slot Qframe —
/// per slot a splitmix64 draw for the photon number, one per photon, a
/// dark-count draw and a basis draw, and a detection bit — the
/// floating-point, branchy mix the Qframe generator is made of. A shared
/// machine's speed drifts by tens of percent over minutes; a block's wall
/// time divided by the reference time around it does not, as far as the
/// job slows the way the stack's code does. Of the jobs tried (scattered
/// integer read-modify-writes over 2 MiB, hash-map lookups, this one) it
/// tracked the drift best on every workload. The job runs none of the
/// stack's code, so no change to the stack moves it.
class Reference {
 public:
  Reference();

  /// Runs the job once on the calling thread; returns its wall seconds.
  double run();

 private:
  std::vector<std::uint64_t> detected_;  // one bit per slot
  double sink_ = 0.0;                    // keeps the job's result alive
};

/// Wall seconds of one reference job on the quiet machine the benchmark was
/// tuned on (4-vCPU Intel Xeon VM, GCC 12 -O3). A "ref second" is a wall
/// second scaled by this over the job's time at the moment: one wall
/// second there, whatever the machine's speed.
inline constexpr double kReferenceJobS = 0.008;

// ---- Workloads --------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// Steps run before timing starts (caches, first negotiations).
  virtual std::size_t warmup_steps() const = 0;
  /// Steps per block: the unit a traced run switches tracing on and off
  /// at, the span a reference job brackets, and the sample the rate
  /// metrics take their median over. A block should do the same simulated
  /// work every time and take ~10-30 reference jobs of wall time.
  virtual std::size_t block_steps() const = 0;

  /// Marks the start of the measured region (counters baseline here).
  virtual void begin_measurement() = 0;
  virtual StepOutcome step() = 0;

  /// Folds the spans recorded since the last fold into the workload's
  /// per-layer accumulators.
  virtual void fold(const std::vector<qkd::obs::Span>& spans) = 0;

  /// Ends the run: runs the output checks (false, with `why` filled, on the
  /// first failure), then fills the deterministic model outputs and the
  /// per-layer metrics.
  virtual bool finish(std::string& why, MetricMap& model, MetricMap& layers,
                      const RunWall& wall) = 0;

  /// Adds consumer operations only settled at the end of the run (ESP
  /// packets sent during the measured steps, and those never delivered).
  virtual void settle(std::uint64_t& /*attempted*/,
                      std::uint64_t& /*failed*/) {}

  /// Workload parameters for the context stamp.
  virtual std::map<std::string, std::string> params() const = 0;

  Spans& spans() { return *spans_; }

 protected:
  explicit Workload(std::size_t cells)
      : spans_(std::make_unique<Spans>(cells)) {}

 private:
  std::unique_ptr<Spans> spans_;
};

std::unique_ptr<Workload> make_distill(const Options& options);
std::unique_ptr<Workload> make_kms_fleet(const Options& options);
std::unique_ptr<Workload> make_e2e(const Options& options);

// ---- Statistics -------------------------------------------------------------

double percentile(std::vector<double> values, double p);

/// Fixed-resolution latency histogram (10 us buckets up to 1 s; larger
/// values land in the last bucket): constant memory however long a run is.
class LatencyHistogram {
 public:
  void add(double ms);
  void merge(const LatencyHistogram& other);
  void clear();
  std::uint64_t count() const { return count_; }
  /// Upper edge of the bucket holding the p-th percentile sample.
  double percentile(double p) const;

 private:
  static constexpr double kBucketMs = 0.01;
  static constexpr std::size_t kBuckets = 100000;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
};

/// The highest percentile of a fixed ladder (p95 down to p75) that leaves
/// at least ten samples beyond it (50 when there are too few for any).
double tail_percentile(std::size_t samples);

double median(std::vector<double> values);

struct LayerMetric {
  std::string name;
  std::string unit;
};

/// Every per-layer metric with its unit, in the order BENCHMARK.json lists
/// them; a traced run prints all of them for every workload (0 where the
/// workload leaves a layer idle).
const std::vector<LayerMetric>& layer_metrics();

}  // namespace keybench
