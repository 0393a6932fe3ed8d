#include "keybench/src/harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace keybench {
namespace {

/// Contexts of the benchmark spans open on this thread, innermost last.
thread_local std::vector<qkd::obs::TraceContext> open_spans;

/// Delegates to one real stage, recording its span and wire traffic.
class StageProbe final : public qkd::proto::PipelineStage {
 public:
  StageProbe(std::unique_ptr<qkd::proto::PipelineStage> inner,
             std::size_t index, StageTally& tally, Spans& spans)
      : inner_(std::move(inner)),
        span_name_(std::string("qkd.") + inner_->name()),
        index_(index),
        tally_(tally),
        spans_(spans) {}

  const char* name() const override { return inner_->name(); }

  qkd::proto::AbortReason run(qkd::proto::BatchContext& ctx) override {
    if (index_ == 0) tally_.detections += ctx.result.detections;
    const std::size_t messages = ctx.result.control_messages;
    const std::size_t bytes = ctx.result.control_bytes;
    qkd::proto::AbortReason reason;
    {
      Scope span(spans_, span_name_.c_str());
      reason = inner_->run(ctx);
    }
    tally_.messages[index_] += ctx.result.control_messages - messages;
    tally_.bytes[index_] += ctx.result.control_bytes - bytes;
    return reason;
  }

 private:
  std::unique_ptr<qkd::proto::PipelineStage> inner_;
  std::string span_name_;
  std::size_t index_;
  StageTally& tally_;
  Spans& spans_;
};

}  // namespace

Spans::Spans(std::size_t cells)
    : tracer_(cells), generation_([] {
        static std::atomic<std::uint64_t> next{1};
        return next.fetch_add(1);
      }()) {
  cells_.emplace(std::this_thread::get_id(), 0);
}

std::size_t Spans::cell() {
  thread_local std::uint64_t cached_generation = 0;
  thread_local std::size_t cached_cell = 0;
  if (cached_generation != generation_) {
    std::lock_guard<std::mutex> lock(cells_mu_);
    const auto it =
        cells_.emplace(std::this_thread::get_id(), cells_.size()).first;
    cached_cell = std::min(it->second, tracer_.cells() - 1);
    cached_generation = generation_;
  }
  return cached_cell;
}

std::vector<qkd::obs::Span> Spans::drain() {
  std::vector<qkd::obs::Span> spans = tracer_.spans();
  tracer_.clear();
  return spans;
}

Scope::Scope(Spans& spans, const char* name) {
  if (!spans.on()) return;
  const qkd::obs::TraceContext parent =
      open_spans.empty() ? spans.root() : open_spans.back();
  span_.emplace(&spans.tracer(), name, parent, spans.cell());
  if (span_->recording()) {
    open_spans.push_back(span_->context());
    pushed_ = true;
  }
}

Scope::~Scope() {
  if (pushed_) open_spans.pop_back();
}

double span_seconds(const qkd::obs::Span& span) {
  return span.wall_end_ns > span.wall_start_ns
             ? static_cast<double>(span.wall_end_ns - span.wall_start_ns) *
                   1e-9
             : 0.0;
}

void SpanTotals::add(const std::vector<qkd::obs::Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].span_id] = i;
  std::vector<double> child_s(spans.size(), 0.0);
  for (const qkd::obs::Span& span : spans) {
    const auto parent = by_id.find(span.parent_span);
    if (parent != by_id.end() && spans[parent->second].cell == span.cell)
      child_s[parent->second] += span_seconds(span);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double seconds = span_seconds(spans[i]);
    total_s[spans[i].name] += seconds;
    self_s[spans[i].name] += seconds - child_s[i];
    ++count[spans[i].name];
  }
}

double SpanTotals::total(const std::string& name) const {
  const auto it = total_s.find(name);
  return it == total_s.end() ? 0.0 : it->second;
}

double SpanTotals::self(const std::string& name) const {
  const auto it = self_s.find(name);
  return it == self_s.end() ? 0.0 : it->second;
}

const std::vector<std::string>& stage_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& stage : qkd::proto::default_pipeline())
      out.emplace_back(stage->name());
    return out;
  }();
  return names;
}

void install_stage_probes(qkd::proto::QkdLinkSession& session,
                          StageTally& tally, Spans& spans) {
  auto stages = qkd::proto::default_pipeline();
  tally.messages.assign(stages.size(), 0);
  tally.bytes.assign(stages.size(), 0);
  std::vector<std::unique_ptr<qkd::proto::PipelineStage>> probes;
  probes.reserve(stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i)
    probes.push_back(
        std::make_unique<StageProbe>(std::move(stages[i]), i, tally, spans));
  session.set_pipeline(std::move(probes));
}

StageTally tally_since(const std::vector<StageTally>& now,
                       const std::vector<StageTally>& base) {
  StageTally out;
  out.messages.assign(stage_names().size(), 0);
  out.bytes.assign(stage_names().size(), 0);
  for (std::size_t i = 0; i < now.size(); ++i) {
    out.detections += now[i].detections - base[i].detections;
    for (std::size_t s = 0; s < out.messages.size(); ++s) {
      out.messages[s] += now[i].messages[s] - base[i].messages[s];
      out.bytes[s] += now[i].bytes[s] - base[i].bytes[s];
    }
  }
  return out;
}

LinkTotals LinkTotals::of(const qkd::network::LinkKeyService& service) {
  LinkTotals out;
  out.min_distilled = ~std::uint64_t{0};
  for (std::size_t i = 0; i < service.link_count(); ++i) {
    const auto& totals = service.session(i).totals();
    out.batches += totals.batches;
    out.accepted += totals.accepted_batches;
    out.sifted += totals.sifted_bits;
    out.distilled += totals.distilled_bits;
    out.min_distilled = std::min<std::uint64_t>(out.min_distilled,
                                                totals.distilled_bits);
    out.link_s += totals.duration_s;
  }
  return out;
}

LinkTotals LinkTotals::since(const LinkTotals& base) const {
  return {batches - base.batches,     accepted - base.accepted,
          sifted - base.sifted,       distilled - base.distilled,
          0,                          link_s - base.link_s};
}

double LinkTotals::rate_bps() const {
  return ratio(static_cast<double>(distilled), link_s);
}

void add_qkd_layers(MetricMap& layers, const LinkTotals& run,
                    const StageTally& tally, const SpanTotals& spans) {
  const auto& names = stage_names();
  layers["optics.detections"] = static_cast<double>(tally.detections);
  double control_bytes = 0.0;
  for (std::size_t s = 0; s < names.size(); ++s) {
    layers["qkd." + names[s] + "_s"] = spans.total("qkd." + names[s]);
    control_bytes += static_cast<double>(tally.bytes[s]);
    if (names[s] == "error-correction")
      layers["qkd.error-correction_msgs"] =
          static_cast<double>(tally.messages[s]);
  }
  layers["qkd.control_bytes"] = control_bytes;
  layers["qkd.accept_ratio"] = ratio(static_cast<double>(run.accepted),
                                     static_cast<double>(run.batches));
  layers["qkd.sift_ratio"] = ratio(static_cast<double>(run.sifted),
                                   static_cast<double>(tally.detections));
  layers["qkd.distill_ratio"] = ratio(static_cast<double>(run.distilled),
                                      static_cast<double>(run.sifted));
  layers["qkd.key_rate_bps_sim"] = run.rate_bps();
}

bool pairs_in_lockstep(const qkd::kms::KeyManagementService& kms,
                       std::string& why) {
  for (const auto& pair : kms.inspect_pairs()) {
    if (pair.src_available_bits != pair.dst_available_bits ||
        pair.src_next_key_id != pair.dst_next_key_id) {
      std::ostringstream message;
      message << "pair " << pair.src << "-" << pair.dst
              << " stores out of lockstep";
      why = message.str();
      return false;
    }
  }
  return true;
}

namespace {

/// Slots of the reference job's mock frame: the size of a real Qframe.
constexpr std::size_t kReferenceSlots = std::size_t{1} << 20;

/// splitmix64: advances `state` and returns the next draw.
std::uint64_t next_draw(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A draw as a double in [0, 1).
double unit_draw(std::uint64_t draw) {
  return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

}  // namespace

Reference::Reference() : detected_(kReferenceSlots / 64) {
  run();  // first touch and warm caches
}

double Reference::run() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t state = 7;
  double checksum = 0.0;
  for (std::size_t slot = 0; slot < kReferenceSlots; ++slot) {
    // Photon number (Poisson, mean 0.1, by inversion), a survival draw per
    // photon, a dark count, Bob's basis; a click sets the slot's bit.
    const std::uint64_t pulse = next_draw(state);
    const double u = unit_draw(pulse);
    const unsigned photons = u < 0.9048 ? 0u : (u < 0.9953 ? 1u : 2u);
    bool click = false;
    for (unsigned p = 0; p < photons; ++p)
      if (unit_draw(next_draw(state)) < 0.3) click = !click;
    if (unit_draw(next_draw(state)) < 1e-3) click = true;
    const std::uint64_t basis = next_draw(state);
    if (click) {
      detected_[slot / 64] ^= std::uint64_t{1} << (slot % 64);
      checksum += static_cast<double>((pulse ^ basis) & 1) + std::exp(-u);
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  sink_ += checksum;
  return seconds;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

void LatencyHistogram::add(double ms) {
  const double index = std::max(0.0, ms / kBucketMs);
  ++buckets_[std::min(static_cast<std::size_t>(index), kBuckets - 1)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

void LatencyHistogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= std::max<std::uint64_t>(rank, 1))
      return static_cast<double>(i + 1) * kBucketMs;
  }
  return static_cast<double>(kBuckets) * kBucketMs;
}

double tail_percentile(std::size_t samples) {
  // Capped at p95: further out, a run's tail on a shared machine is the
  // host's scheduling noise rather than the workload.
  static constexpr double kLadder[] = {95.0, 90.0, 80.0, 75.0};
  for (double p : kLadder) {
    const double beyond = (1.0 - p / 100.0) * static_cast<double>(samples);
    if (beyond >= 10.0) return p;
  }
  return 50.0;
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> out = {{"optics.frame_s", "s"},
                                    {"optics.detections", "count"}};
    for (const std::string& stage : stage_names())
      out.push_back({"qkd." + stage + "_s", "s"});
    const std::vector<LayerMetric> rest = {
        {"qkd.error-correction_msgs", "count"},
        {"qkd.control_bytes", "bytes"},
        {"qkd.accept_ratio", "frac"},
        {"qkd.sift_ratio", "frac"},
        {"qkd.distill_ratio", "frac"},
        {"qkd.key_rate_bps_sim", "bit/s"},
        {"network.fanout_s", "s"},
        {"network.lane_busy_frac", "frac"},
        {"mesh.transports", "count"},
        {"mesh.starved", "count"},
        {"kms.admit_s", "s"},
        {"kms.service_s", "s"},
        {"kms.grants_per_wall_s", "1/s"},
        {"kms.grants_per_frame", "count"},
        {"kms.grant_p50_sim_ms", "ms"},
        {"kms.grant_tail_sim_ms", "ms"},
        {"kms.starved_rounds", "count"},
        {"kms.replenish_wakeups", "count"},
        {"kms.shed", "count"},
        {"kms.shard_imbalance", "ratio"},
        {"sim.events", "count"},
        {"sim.run_s", "s"},
        {"keystore.bits_deposited", "bits"},
        {"keystore.bits_withdrawn", "bits"},
        {"keystore.failed_withdrawals", "count"},
        {"wire.get_key_s", "s"},
        {"wire.serve_s", "s"},
        {"wire.self_s", "s"},
        {"wire.frames", "count"},
        {"wire.bytes", "bytes"},
        {"wire.retransmits", "count"},
        {"ipsec.protect_s", "s"},
        {"ipsec.pump_s", "s"},
        {"ipsec.esp_delivered_frac", "frac"},
        {"ipsec.sa_rollovers", "count"},
        {"ipsec.supply_exhausted", "count"},
        {"ipsec.bridge_refills", "count"},
        {"trace.wall_s", "s"},
        {"trace.overhead_frac", "frac"},
        {"unattributed_frac", "frac"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
  }();
  return metrics;
}

}  // namespace keybench
