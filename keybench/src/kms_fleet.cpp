// kms-fleet: the grant path only. An analytic-rate hub mesh with 16
// disjoint endpoint pairs is pre-stepped so supply never binds (optics and
// qkd never run). A KeyManagementService on a 4-shard ShardedScheduler
// serves 1008 clients — 21 per QoS class per pair, asking for
// 64/96/128-bit keys — driven open-loop in simulated time by per-client
// periodic tickers the benchmark arms on stream_for_pair.
// Every grant is claimed back at once through get_key_with_id, so the
// claim ledger stays small and each grant is checked against its claim.
//
// One step is one 10 ms scheduler window.
#include <algorithm>
#include <array>
#include <memory>
#include <random>
#include <sstream>

#include "keybench/src/harness.hpp"
#include "src/common/worker_pool.hpp"
#include "src/kms/kms.hpp"
#include "src/network/key_transport.hpp"
#include "src/sim/sharded_scheduler.hpp"

namespace keybench {
namespace {

using qkd::SimTime;
using qkd::kms::ClientId;
using qkd::kms::Grant;
using qkd::kms::GrantStatus;
using qkd::kms::KeyManagementService;
using qkd::kms::QosClass;
using qkd::network::MeshSimulation;
using qkd::network::NodeId;
using qkd::network::NodeKind;
using qkd::network::Topology;

constexpr std::size_t kPairs = 16;
constexpr std::size_t kClientsPerClass = 21;  // per pair
constexpr std::size_t kShards = 4;
/// Lanes the shards run on. One lane runs the shard streams inline in
/// shard order; with two, every 10 ms window pays two cross-thread
/// handoffs (~10k a second), which made whole runs swing 2.5x with the
/// host's load.
constexpr std::size_t kFleetLanes = 1;
constexpr std::array<std::size_t, qkd::kms::kQosClassCount> kRequestBits = {
    64, 96, 128};
constexpr SimTime kWindow = 10 * qkd::kMillisecond;
/// Client request periods are drawn uniformly from this range (10 Hz mean).
constexpr SimTime kMinPeriod = 50 * qkd::kMillisecond;
constexpr SimTime kMaxPeriod = 150 * qkd::kMillisecond;
/// Pool depth every hub link is pre-stepped to: far beyond what any run
/// can draw, so supply never binds.
constexpr double kPrestepBits = 1e13;

Topology hub(std::size_t pairs) {
  Topology topo;
  topo.add_node("hub", NodeKind::kTrustedRelay);
  qkd::optics::LinkParams optics;
  optics.fiber_km = 1.0;
  optics.pulse_rate_hz = 5e9;
  for (std::size_t p = 0; p < 2 * pairs; ++p) {
    std::ostringstream name;
    name << "e" << p;
    const NodeId node = topo.add_node(name.str(), NodeKind::kEndpoint);
    topo.add_link(0, node, optics);
  }
  return topo;
}

struct GrantCounts {
  std::uint64_t requests = 0;
  std::uint64_t granted = 0;
  std::uint64_t refused = 0;
  std::uint64_t bits = 0;
  std::uint64_t claim_mismatches = 0;
};

/// One shard's grant-side tallies. Grants for a shard's pairs are delivered
/// on that shard's lane only, so each tally has a single writer (and its
/// own cache line).
struct alignas(64) ShardTally {
  GrantCounts counts;
  LatencyHistogram latency;  // request-to-grant, sim time
};

class KmsFleet final : public Workload {
 public:
  explicit KmsFleet(const Options& options)
      : Workload(kFleetLanes),
        mesh_(hub(kPairs), options.seed),
        global_(clock_),
        sharded_(global_, kShards,
                 std::make_shared<qkd::common::WorkerPool>(kFleetLanes)),
        kms_(mesh_, sharded_, kms_config(options.seed)),
        tallies_(kShards) {
    const double rate =
        qkd::network::link_distill_rate_bps(mesh_.topology().links()[0]);
    mesh_.step(kPrestepBits / rate);

    std::mt19937_64 rng(options.seed);
    std::uniform_int_distribution<SimTime> period_of(kMinPeriod, kMaxPeriod);
    for (std::size_t p = 0; p < kPairs; ++p) {
      const auto src = static_cast<NodeId>(1 + 2 * p);
      const auto dst = static_cast<NodeId>(2 + 2 * p);
      const std::size_t shard = kms_.shard_of(src, dst);
      for (std::size_t qos = 0; qos < qkd::kms::kQosClassCount; ++qos) {
        for (std::size_t c = 0; c < kClientsPerClass; ++c) {
          std::ostringstream name;
          name << "c" << p << "." << qos << "." << c;
          const ClientId id = kms_.register_client(
              {name.str(), src, dst, static_cast<QosClass>(qos)});
          const SimTime period = period_of(rng);
          const SimTime first =
              std::uniform_int_distribution<SimTime>(0, period - 1)(rng);
          arm_ticker(id, shard, kRequestBits[qos], src, dst, first, period);
          ++clients_;
        }
      }
    }
  }

  /// One simulated second: every ticker has fired and every pair's route
  /// cache and DRR state are warm.
  std::size_t warmup_steps() const override { return 100; }
  /// Ten simulated seconds, ~0.2 s of wall time.
  std::size_t block_steps() const override { return 1000; }

  void begin_measurement() override {
    base_ = snapshot();
    for (ShardTally& tally : tallies_) tally.latency.clear();
    base_events_ = events_;
    base_stats_ = kms_.stats();
    base_mesh_ = mesh_.stats();
    base_shed_ = shed();
  }

  StepOutcome step() override {
    const GrantCounts before = snapshot();
    {
      Scope run(spans(), "sim.run");
      events_ += sharded_.run_until(global_.now() + kWindow);
    }
    const GrantCounts after = snapshot();
    StepOutcome out;
    out.sim_s = qkd::sim_to_seconds(kWindow);
    out.key_bits = static_cast<double>(after.bits - before.bits);
    out.attempted = (after.granted + after.refused) -
                    (before.granted + before.refused);
    out.failed = after.refused - before.refused;
    return out;
  }

  void fold(const std::vector<qkd::obs::Span>& spans) override {
    totals_.add(spans);
  }

  bool finish(std::string& why, MetricMap& model, MetricMap& layers,
              const RunWall& wall) override {
    const GrantCounts all = snapshot();
    if (all.claim_mismatches != 0) {
      why = std::to_string(all.claim_mismatches) +
            " grants differ from their claimed peer copy";
      return false;
    }
    if (!pairs_in_lockstep(kms_, why)) return false;
    const auto& stats = kms_.stats();
    const auto& mesh = mesh_.stats();
    if (stats.starved_rounds != 0 || mesh.transports_starved != 0) {
      why = "the pre-stepped supply ran dry";
      return false;
    }

    LatencyHistogram latency;
    std::vector<double> per_shard;
    for (const ShardTally& tally : tallies_) {
      latency.merge(tally.latency);
      per_shard.push_back(static_cast<double>(tally.latency.count()));
    }
    const double tail_p = tail_percentile(latency.count());
    const std::uint64_t granted = all.granted - base_.granted;
    const std::uint64_t transports = stats.transports - base_stats_.transports;

    model["requests"] = static_cast<double>(all.requests - base_.requests);
    model["granted"] = static_cast<double>(granted);
    model["refused"] = static_cast<double>(all.refused - base_.refused);
    model["bits_granted"] = static_cast<double>(all.bits - base_.bits);
    model["transports"] = static_cast<double>(transports);
    model["sim_events"] = static_cast<double>(events_ - base_events_);
    model["grant_p50_sim_ms"] = latency.percentile(50.0);
    model["grant_tail_sim_ms"] = latency.percentile(tail_p);
    model["grant_tail_percentile"] = tail_p;

    const double admit = totals_.total("kms.admit");
    const double run = totals_.total("sim.run");
    layers["mesh.transports"] = static_cast<double>(
        mesh.transports_succeeded - base_mesh_.transports_succeeded);
    layers["mesh.starved"] = static_cast<double>(
        mesh.transports_starved - base_mesh_.transports_starved);
    layers["kms.admit_s"] = admit;
    layers["kms.service_s"] =
        std::max(0.0, run - admit - totals_.total("kms.grant_cb"));
    layers["kms.grants_per_wall_s"] =
        ratio(static_cast<double>(granted), wall.measured_s);
    layers["kms.grants_per_frame"] = ratio(static_cast<double>(granted),
                                           static_cast<double>(transports));
    layers["kms.grant_p50_sim_ms"] = model["grant_p50_sim_ms"];
    layers["kms.grant_tail_sim_ms"] = model["grant_tail_sim_ms"];
    layers["kms.starved_rounds"] =
        static_cast<double>(stats.starved_rounds - base_stats_.starved_rounds);
    layers["kms.replenish_wakeups"] = static_cast<double>(
        stats.replenish_wakeups - base_stats_.replenish_wakeups);
    layers["kms.shed"] = static_cast<double>(shed() - base_shed_);
    layers["kms.shard_imbalance"] =
        ratio(*std::max_element(per_shard.begin(), per_shard.end()),
              static_cast<double>(granted) /
                  static_cast<double>(per_shard.size()));
    layers["sim.events"] = static_cast<double>(events_ - base_events_);
    layers["sim.run_s"] = run;
    layers["unattributed_frac"] =
        wall.traced_s > 0.0 ? 1.0 - run / wall.traced_s : 0.0;
    return true;
  }

  std::map<std::string, std::string> params() const override {
    return {{"pairs", std::to_string(kPairs)},
            {"clients", std::to_string(clients_)},
            {"request_bits", "64,96,128"},
            {"request_period_ms", "uniform 50..150"},
            {"shards", std::to_string(kShards)},
            {"lanes", std::to_string(kFleetLanes)},
            {"supply", "analytic, pre-stepped"},
            {"step", "one 10 ms scheduler window"}};
  }

 private:
  static KeyManagementService::Config kms_config(std::uint64_t seed) {
    KeyManagementService::Config config;
    config.seed = seed;
    return config;
  }

  void arm_ticker(ClientId id, std::size_t shard, std::size_t bits,
                  NodeId src, NodeId dst, SimTime first, SimTime period) {
    kms_.stream_for_pair(src, dst).every(
        first, period, [this, id, shard, bits](SimTime) {
          ShardTally& tally = tallies_[shard];
          ++tally.counts.requests;
          Scope admit(spans(), "kms.admit");
          kms_.get_key(id, bits, [this, &tally](const Grant& grant) {
            Scope callback(spans(), "kms.grant_cb");
            on_grant(tally, grant);
          });
        });
  }

  void on_grant(ShardTally& tally, const Grant& grant) {
    if (grant.status != GrantStatus::kGranted) {
      ++tally.counts.refused;
      return;
    }
    ++tally.counts.granted;
    tally.counts.bits += grant.bits.size();
    tally.latency.add(
        qkd::sim_to_seconds(grant.granted_at - grant.requested_at) * 1e3);
    const auto claim = kms_.get_key_with_id(grant.client, grant.key_id);
    if (!claim.has_value() || !(claim->bits == grant.bits))
      ++tally.counts.claim_mismatches;
  }

  /// Sums the shard counts (lanes parked: between steps only).
  GrantCounts snapshot() const {
    GrantCounts out;
    for (const ShardTally& tally : tallies_) {
      out.requests += tally.counts.requests;
      out.granted += tally.counts.granted;
      out.refused += tally.counts.refused;
      out.bits += tally.counts.bits;
      out.claim_mismatches += tally.counts.claim_mismatches;
    }
    return out;
  }

  std::uint64_t shed() const {
    std::uint64_t total = 0;
    for (std::size_t qos = 0; qos < qkd::kms::kQosClassCount; ++qos)
      total += kms_.class_stats(static_cast<QosClass>(qos)).shed;
    return total;
  }

  std::size_t clients_ = 0;
  MeshSimulation mesh_;
  qkd::SimClock clock_;
  qkd::sim::EventScheduler global_;
  qkd::sim::ShardedScheduler sharded_;
  KeyManagementService kms_;
  std::vector<ShardTally> tallies_;
  GrantCounts base_;
  std::uint64_t events_ = 0;
  std::uint64_t base_events_ = 0;
  KeyManagementService::Stats base_stats_;
  MeshSimulation::Stats base_mesh_;
  std::uint64_t base_shed_ = 0;
  SpanTotals totals_;
};

}  // namespace

std::unique_ptr<Workload> make_kms_fleet(const Options& options) {
  return std::make_unique<KmsFleet>(options);
}

}  // namespace keybench
