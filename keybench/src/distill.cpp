// distill: photons and distillation only, no consumers beyond the link
// pools. Four links at 5/10/15/20 km run the paper's operating point
// (mu = 0.1, 1 MHz, 2^20-slot Qframes) through an engine-mode
// LinkKeyService whose run_batches fans the links out over a shared
// WorkerPool (one lane: see kDistillLanes). Detection density halves
// across the ladder, so sifting and Cascade load differ per link. Past
// ~20 km the finite-size entropy deduction leaves almost no key at this
// frame size, and batches start to abort.
//
// One step is one fan-out round (one Qframe per link). Each link's stream
// is attached to two mirror pools (the Alice and Bob reservoirs); the
// check at the end is that they hold the same bits.
#include <algorithm>
#include <array>
#include <memory>
#include <sstream>

#include "keybench/src/harness.hpp"
#include "src/common/worker_pool.hpp"
#include "src/keystore/key_pool.hpp"
#include "src/network/topology.hpp"

namespace keybench {
namespace {

using qkd::network::LinkKeyService;
using qkd::network::NodeKind;
using qkd::network::Topology;
using qkd::proto::AbortReason;

constexpr std::array<double, 4> kFiberKm = {5.0, 10.0, 15.0, 20.0};
/// Lanes of the WorkerPool run_batches fans the links out on. With two,
/// each round waits for whichever lane the host delayed: round times
/// spread ±20% within a run and whole runs 10-18% apart on the shared
/// machine the benchmark was tuned on. One lane runs the links inline in
/// link order, and the fan-out and barrier code still runs.
constexpr std::size_t kDistillLanes = 1;

Topology fiber_ladder() {
  Topology topo;
  for (double km : kFiberKm) {
    const auto a = topo.add_node("a", NodeKind::kEndpoint);
    const auto b = topo.add_node("b", NodeKind::kEndpoint);
    qkd::optics::LinkParams optics;
    optics.fiber_km = km;
    topo.add_link(a, b, optics);
  }
  return topo;
}

/// Batches aborted because the link could not run the protocol at all. The
/// other reasons (QBER alarm, Cascade not converging, verify mismatch,
/// entropy exhausted) are the protocol correctly refusing to emit key:
/// completed operations, counted in qkd.accept_ratio rather than as failed.
std::uint64_t malfunctions(const LinkKeyService& service) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < service.link_count(); ++i) {
    const auto& totals = service.session(i).totals();
    count += totals.aborted(AbortReason::kNoSiftedBits) +
             totals.aborted(AbortReason::kAuthExhausted) +
             totals.aborted(AbortReason::kChannelLost);
  }
  return count;
}

class Distill final : public Workload {
 public:
  explicit Distill(const Options& options)
      : Workload(kDistillLanes),
        service_(fiber_ladder(), config(options.seed)),
        mirrors_(service_.link_count()),
        tallies_(service_.link_count()) {
    for (std::size_t i = 0; i < service_.link_count(); ++i) {
      mirrors_[i] = {std::make_unique<qkd::keystore::KeyPool>("alice"),
                     std::make_unique<qkd::keystore::KeyPool>("bob")};
      service_.attach_sink(i, *mirrors_[i][0]);
      service_.attach_sink(i, *mirrors_[i][1]);
      install_stage_probes(service_.session(i), tallies_[i], spans());
    }
  }

  std::size_t warmup_steps() const override { return 1; }
  std::size_t block_steps() const override { return 1; }

  void begin_measurement() override {
    base_ = LinkTotals::of(service_);
    base_tallies_ = tallies_;
    base_deposited_ = deposited();
  }

  StepOutcome step() override {
    const std::uint64_t batches_before = LinkTotals::of(service_).batches;
    const std::uint64_t failed_before = malfunctions(service_);
    const std::uint64_t deposited_before = deposited();
    {
      Scope fanout(spans(), "network.fanout");
      spans().set_root(fanout.context());
      service_.run_batches(1);
    }
    StepOutcome out;
    // The links run side by side on the simulated timeline: a round
    // advances it by one frame (every link shares the 1 MHz trigger rate).
    out.sim_s = service_.link_frame_duration_s(0);
    out.key_bits = static_cast<double>(deposited() - deposited_before);
    out.attempted = LinkTotals::of(service_).batches - batches_before;
    out.failed = malfunctions(service_) - failed_before;
    return out;
  }

  void fold(const std::vector<qkd::obs::Span>& spans) override {
    totals_.add(spans);
    // Each lane's share of a round runs from the fan-out start to the end
    // of the last stage it ran; the part of it outside stage spans is the
    // optics frame (plus the lane's claim of the link).
    for (const qkd::obs::Span& fan : spans) {
      if (fan.name != "network.fanout") continue;
      std::array<std::uint64_t, kDistillLanes> last_end{};
      std::array<double, kDistillLanes> stage_s{};
      for (const qkd::obs::Span& span : spans) {
        if (span.parent_span != fan.span_id) continue;
        last_end[span.cell] = std::max(last_end[span.cell], span.wall_end_ns);
        stage_s[span.cell] += span_seconds(span);
      }
      for (std::size_t lane = 0; lane < kDistillLanes; ++lane) {
        if (last_end[lane] == 0) continue;
        const double busy =
            static_cast<double>(last_end[lane] - fan.wall_start_ns) * 1e-9;
        lane_busy_s_ += busy;
        frame_s_ += busy - stage_s[lane];
      }
      lane_capacity_s_ +=
          span_seconds(fan) * static_cast<double>(kDistillLanes);
    }
  }

  bool finish(std::string& why, MetricMap& model, MetricMap& layers,
              const RunWall& wall) override {
    // Mirrored pools stay in lockstep: same key ids, same bits.
    for (auto& [alice, bob] : mirrors_) {
      if (alice->available_bits() != bob->available_bits() ||
          alice->next_key_id() != bob->next_key_id()) {
        why = "a link's mirror pools are out of lockstep";
        return false;
      }
      if (!(alice->take_all().bits == bob->take_all().bits)) {
        why = "a link's mirror pools hold different bits";
        return false;
      }
    }
    const LinkTotals all = LinkTotals::of(service_);
    if (deposited() > all.distilled) {
      why = "pools received more bits than the links distilled";
      return false;
    }

    const LinkTotals run = all.since(base_);
    const StageTally tally = tally_since(tallies_, base_tallies_);
    model["batches"] = static_cast<double>(run.batches);
    model["accepted_batches"] = static_cast<double>(run.accepted);
    model["sifted_bits"] = static_cast<double>(run.sifted);
    model["distilled_bits"] = static_cast<double>(run.distilled);
    model["detections"] = static_cast<double>(tally.detections);
    model["key_bits_delivered"] =
        static_cast<double>(deposited() - base_deposited_);
    model["key_rate_bps_sim"] = run.rate_bps();
    for (std::size_t i = 0; i < service_.link_count(); ++i) {
      const auto& totals = service_.session(i).totals();
      std::ostringstream link;
      link << "link" << i << ".";
      model[link.str() + "key_rate_bps_sim"] = totals.distilled_rate_bps();
      for (std::size_t r = 1; r < qkd::proto::kAbortReasonCount; ++r) {
        if (totals.by_reason[r] == 0) continue;
        model[link.str() + "aborted." +
              qkd::proto::abort_reason_name(static_cast<AbortReason>(r))] =
            static_cast<double>(totals.by_reason[r]);
      }
    }

    add_qkd_layers(layers, run, tally, totals_);
    layers["optics.frame_s"] = frame_s_;
    layers["network.fanout_s"] = totals_.total("network.fanout");
    layers["network.lane_busy_frac"] = ratio(lane_busy_s_, lane_capacity_s_);
    layers["unattributed_frac"] =
        wall.traced_s > 0.0
            ? 1.0 - totals_.total("network.fanout") / wall.traced_s
            : 0.0;
    return true;
  }

  std::map<std::string, std::string> params() const override {
    return {{"links", "4"},
            {"fiber_km", "5,10,15,20"},
            {"mu", "0.1"},
            {"pulse_rate_hz", "1e6"},
            {"frame_slots", "1048576"},
            {"prepositioned_pad_bits", std::to_string(kPrepositionedPadBits)},
            {"lanes", std::to_string(kDistillLanes)},
            {"step", "one run_batches(1) fan-out round"}};
  }

 private:
  static LinkKeyService::Config config(std::uint64_t seed) {
    LinkKeyService::Config config;
    config.seed = seed;
    config.pool = std::make_shared<qkd::common::WorkerPool>(kDistillLanes);
    config.proto.preposition_extra_bits = kPrepositionedPadBits;
    return config;
  }

  std::uint64_t deposited() const {
    std::uint64_t bits = 0;
    for (const auto& pair : mirrors_) bits += pair[0]->stats().bits_deposited;
    return bits;
  }

  LinkKeyService service_;
  std::vector<std::array<std::unique_ptr<qkd::keystore::KeyPool>, 2>> mirrors_;
  std::vector<StageTally> tallies_;
  std::vector<StageTally> base_tallies_;
  LinkTotals base_;
  std::uint64_t base_deposited_ = 0;
  SpanTotals totals_;
  double frame_s_ = 0.0;
  double lane_busy_s_ = 0.0;
  double lane_capacity_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_distill(const Options& options) {
  return std::make_unique<Distill>(options);
}

}  // namespace keybench
