// The trusted-relay "key transport network" of Section 8.
//
// Every usable link continuously distills pairwise key material into a link
// pool. To agree on an end-to-end key, the source generates fresh key bits
// and forwards them hop by hop: across each link the bits travel one-time-pad
// encrypted under that link's pairwise key; inside each relay they exist in
// the clear ("the end-to-end key will appear in the clear within the relays'
// memories proper, but will always be encrypted when passing across a
// link"). The result accounts both the key-material cost (every hop consumes
// pool bits equal to the transported key) and the trust cost (the set of
// relays that saw the key).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "src/common/rng.hpp"
#include "src/common/sim_clock.hpp"
#include "src/network/key_service.hpp"
#include "src/network/routing.hpp"
#include "src/network/topology.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/wire/frame.hpp"

namespace qkd::network {

/// Analytic estimate of the distilled-key fraction of sifted bits at a
/// link's operating point (error-correction disclosure at 1.2x Shannon plus
/// the Bennett charge and the conditional multi-photon charge), clamped to
/// zero. Cross-validated against the full protocol engine in tests.
double estimated_distill_fraction(const qkd::optics::LinkModel& model);

/// Distilled bits/second a link produces at its operating point; zero when
/// the link is cut, eavesdropped past the QBER alarm, or out of range.
double link_distill_rate_bps(const Link& link);

/// How MeshSimulation::step() accrues pairwise key into link pools.
enum class RateModel {
  /// Closed-form estimated_distill_fraction: instant, used for fast
  /// parameter sweeps and the topology benches.
  kAnalytic,
  /// A LinkKeyService runs the real protocol engine on every link; pools
  /// grow by actually distilled bits. Eavesdropping installed with
  /// eavesdrop_link() is applied to the quantum channel, so its cost
  /// emerges from the pipeline instead of a formula.
  kEngine,
};

class MeshSimulation {
 public:
  /// Per-frame relay overhead, paid once per hop per transport frame: the
  /// relayed message carries a key-id/route header plus a Wegman-Carter
  /// authentication tag, and the hop pad must cover them too. Batching
  /// same-destination requests into one frame amortizes this cost — the
  /// lever the KMS layer pulls (Gilbert & Hamrick's computational-load
  /// bound made visible in pool bits).
  static constexpr std::size_t kFrameOverheadBits =
      qkd::wire::relay_frame_overhead_bits();

  struct TransportResult {
    bool success = false;
    Route route;
    /// Delivered end-to-end key: for a batch frame, the requests'
    /// payloads concatenated in request order (slice per request).
    qkd::BitVector key;
    std::vector<NodeId> exposed_to;     // relays that held the key in clear
    std::size_t pool_bits_consumed = 0; // summed across hops, incl. overhead
    /// Some relay in exposed_to is compromised: Eve read this key in the
    /// clear inside that relay's memory.
    bool compromised = false;
  };

  struct Stats {
    std::uint64_t transports_attempted = 0;
    std::uint64_t transports_succeeded = 0;
    std::uint64_t transports_no_route = 0;
    std::uint64_t transports_starved = 0;  // route found but pools too dry
    std::uint64_t reroutes = 0;            // route differed from previous
    std::uint64_t transports_compromised = 0;  // delivered via an owned relay
  };

  /// Per-caller route memo for plan_key_batch: skips the Dijkstra run while
  /// the topology state it was computed against is unchanged (see
  /// topology_version()) and the cached route can still afford the frame.
  /// Owned by the caller (the KMS keeps one per endpoint pair), so the mesh
  /// holds no per-pair mutable state.
  struct RouteCache {
    std::optional<Route> route;
    std::uint64_t version = 0;
  };

  /// Everything transport decides SEQUENTIALLY about one relay frame:
  /// route, exposure, compromise flag, pool accounting (and, in engine
  /// mode, the actual withdrawn hop pads). Materializing the frame — key
  /// generation and the hop-by-hop OTP walk — is deferred to
  /// finalize_frame, which touches no mesh state and therefore runs on any
  /// thread: the split that lets KMS shards finalize frames in parallel
  /// while the shared mesh is only ever touched between barriers.
  struct FramePlan {
    bool success = false;
    Route route;
    std::vector<NodeId> exposed_to;
    bool compromised = false;
    std::size_t payload_bits = 0;
    std::size_t pool_bits_consumed = 0;
    /// Engine mode: the per-hop pads withdrawn from each link's KeySupply
    /// (frame_bits each, in hop order). Analytic mode leaves this empty and
    /// finalize_frame draws simulated pads from the caller's rng.
    std::vector<qkd::BitVector> hop_pads;
  };

  /// Analytic-rate mesh (the fast estimator).
  MeshSimulation(Topology topology, std::uint64_t seed);

  /// Engine-backed mesh: one QkdLinkSession per link via LinkKeyService.
  /// `engine.proto.link` is overridden per link from the topology optics.
  MeshSimulation(Topology topology, std::uint64_t seed,
                 LinkKeyService::Config engine);

  RateModel rate_model() const { return rate_model_; }

  /// The engine service, or nullptr in analytic mode.
  LinkKeyService* key_service() { return service_.get(); }

  Topology& topology() { return topology_; }
  const Topology& topology() const { return topology_; }

  /// Advances simulated time: every usable link distills key into its pool —
  /// at its analytic rate, or by running real engine batches (kEngine, in
  /// which case the key lands in the service's per-link KeySupply).
  void step(double dt_seconds);

  /// The clocked form of step(): advances `clock` by `seconds` in
  /// `tick_seconds` slices, stepping the mesh each slice (the shared
  /// advance_clock_stepped helper — no hand-rolled seconds->SimTime loops).
  void run_on_clock(qkd::SimClock& clock, double seconds, double tick_seconds);

  /// Current pairwise pool of a link, in bits (engine mode reads the
  /// link's KeySupply).
  double link_pool_bits(LinkId link) const;

  /// Moves `bits` of fresh end-to-end key from src to dst hop by hop.
  /// Consumes `bits + kFrameOverheadBits` from every link pool along the
  /// route — in engine mode through each link's KeySupply, whose withdrawn
  /// bits are the actual hop pads. Routes prefer key-rich paths. Fails
  /// (without consuming) when no usable route exists or some pool on the
  /// best route cannot cover the request. Equivalent to a one-request
  /// batch frame.
  TransportResult transport_key(NodeId src, NodeId dst, std::size_t bits);

  /// Moves several same-destination key requests in ONE relay frame: the
  /// payloads travel concatenated under a single per-hop header+tag, so the
  /// frame consumes `sum(request_bits) + kFrameOverheadBits` per hop —
  /// strictly fewer pool bits than one frame per request. All requests
  /// share the frame's route, and every relay in `exposed_to` saw every
  /// request's key (the trust cost is per frame, not per request).
  /// `result.key` holds the payloads in request order. Throws
  /// std::invalid_argument on an empty batch or a zero-bit request.
  TransportResult transport_key_batch(NodeId src, NodeId dst,
                                      const std::vector<std::size_t>& request_bits,
                                      obs::TraceContext trace = {});

  /// The sequential half of a batch transport: routes, checks
  /// affordability, consumes pool bits (withdrawing the real hop pads in
  /// engine mode) and computes exposure/compromise — everything that
  /// touches shared mesh state — without generating the key. With `cache`,
  /// an unchanged-topology route is reused without rerunning Dijkstra
  /// (recomputed when the topology version moved or the cached route can
  /// no longer afford the frame), and Stats::reroutes counts per-caller
  /// route changes instead of the global last-route flip. Failure planned
  /// == failure: nothing was consumed and finalize must not run.
  /// With a tracer installed and a valid `trace`, the plan records one
  /// "mesh.plan" span plus a "mesh.hop" span per consumed hop under it —
  /// the relay legs of a traced KMS grant.
  FramePlan plan_key_batch(NodeId src, NodeId dst, std::size_t payload_bits,
                           RouteCache* cache, obs::TraceContext trace = {});

  /// The pure half: generates the end-to-end key from `rng` and walks the
  /// hop-by-hop OTP relay using the plan's pads (or simulated pads drawn
  /// from `rng` in analytic mode). Touches NO mesh state — safe to call
  /// concurrently for plans of disjoint rng streams. transport_key_batch
  /// is exactly plan + finalize on the mesh's own rng.
  static TransportResult finalize_frame(const FramePlan& plan, qkd::Rng& rng);

  /// Bumped by every topology-affecting mutation (cut/restore/eavesdrop/
  /// compromise/restore-node); RouteCache entries from older versions are
  /// recomputed on next use. Pool-level drift does NOT bump it: a cached
  /// route stays legal, merely possibly suboptimal, until it starves.
  std::uint64_t topology_version() const { return topology_version_; }

  /// Failure injection.
  void cut_link(LinkId link);
  /// Applies an intercept-resend fraction to a link; past the QBER alarm
  /// the link is marked eavesdropped and abandoned. Returns the resulting
  /// expected QBER.
  double eavesdrop_link(LinkId link, double intercept_fraction);
  void restore_link(LinkId link);

  /// Installs classical-channel conditions (one-way latency, loss,
  /// reordering) on one link's PUBLIC channel — the framed byte stream the
  /// distillation dialogue crosses, not the quantum channel. Engine mode
  /// only; returns false on an analytic mesh (no classical channel is
  /// simulated there).
  bool set_classical_conditions(LinkId link,
                                const qkd::net::ClassicalConditions& conditions);

  /// Eve owns this relay: its QKD links keep working (she plays both
  /// protocols honestly), but every end-to-end key it relays is hers.
  /// Routing avoids compromised relays when an alternative exists;
  /// transports that do traverse one are counted in
  /// Stats::transports_compromised and flagged on the result.
  void compromise_node(NodeId node);
  void restore_node(NodeId node);
  bool node_compromised(NodeId node) const;

  const Stats& stats() const { return stats_; }

  /// Installs (or, with nullptr, removes) the tracer the planning path
  /// records spans into. Planning is sequential (the barrier thread or the
  /// single scheduler stream), so spans land in cell 0.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Registers a collector exposing transport Stats, the summed link pool
  /// depth and each link's `<prefix>_link<id>_{qber_percent,pool_bits,
  /// usable}` under `prefix`. Snapshot with the mesh quiesced (between
  /// barriers / runs) — the same discipline every mesh read requires.
  void bind_metrics(obs::MetricsRegistry& registry, std::string prefix);

 private:
  void sync_engine_link_states();
  /// Discards a link's accumulated key (cut / abandoned link).
  void purge_pool(LinkId link);

  Topology topology_;
  qkd::Rng rng_;
  RateModel rate_model_ = RateModel::kAnalytic;
  std::unique_ptr<LinkKeyService> service_;  // kEngine only
  std::vector<double> pools_;  // bits, indexed by LinkId; kAnalytic only
  std::vector<double> eavesdrop_fraction_;
  std::vector<char> compromised_;  // indexed by NodeId
  std::optional<Route> last_route_;
  std::uint64_t topology_version_ = 1;
  Stats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace qkd::network
