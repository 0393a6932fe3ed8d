// Declarative scenarios on the discrete-event timeline.
//
// A Scenario is an ordered script of typed events — fiber cuts, restores,
// eavesdroppers arriving and leaving, traffic bursts, end-to-end key
// requests, relay compromises — each pinned to a SimTime. A ScenarioRunner
// binds the script to the live stack (a MeshSimulation and/or a
// VpnLinkSimulation), schedules every action on one EventScheduler, and
// ports the formerly step-driven layers onto the same timeline:
//
//  * QKD producers advance as scheduled batch-completion events: each
//    engine-backed link (mesh links, the VPN's engine feed) gets a periodic
//    event with the link's Qframe duration as its period; an analytic mesh
//    accrues on a fixed distillation tick instead.
//  * MeshSimulation serves KeyRequest events (recording every
//    TransportResult) and reroutes around CutLink/StartEavesdrop damage on
//    the next request.
//  * The VPN gateways' rekey timers, IKE retransmits and supply-replenished
//    wakeups run as events scheduled at VpnGateway::next_deadline() — no
//    fixed-dt polling anywhere in the run.
//
// So one script runs "Eve appears on link B-C at t=100 s, the mesh
// reroutes, IKE survives on the reserve pool, fiber restored at t=300 s"
// end to end, with a TimelineRecorder sampling the whole stack as it goes.
// The runner owns the one MetricsRegistry the recorder samples: attaching
// the mesh binds it as `mesh`, attaching a VPN binds its gateways as `gw0`
// and `gw1`, and callers bind further layers (the KMS) into registry() and
// build their AlertEngine over it, so alerts and timeline read the same
// samples.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/ipsec/vpn_sim.hpp"
#include "src/network/key_transport.hpp"
#include "src/obs/health/alert.hpp"
#include "src/sim/event_scheduler.hpp"
#include "src/sim/timeline.hpp"

namespace qkd::sim {

class ShardedScheduler;

// ---- Event vocabulary -----------------------------------------------------

/// Fiber cut: the link stops distilling and routing abandons it.
struct CutLink {
  network::LinkId link = 0;
};

/// Fiber repaired: distillation resumes, the link rejoins routing.
struct RestoreLink {
  network::LinkId link = 0;
};

/// Eve taps a link's quantum channel with an intercept-resend attack on
/// `intercept_fraction` of the pulses. Past the QBER alarm the link is
/// abandoned; below it, her presence is paid for in distilled-key yield.
struct StartEavesdrop {
  network::LinkId link = 0;
  double intercept_fraction = 1.0;
};

/// Eve leaves; the link is trusted and used again.
struct StopEavesdrop {
  network::LinkId link = 0;
};

/// `packets_per_s` plaintext packets per second for `duration_s`, submitted
/// to the VPN tunnel's A-side gateway (tunnel 0 is the attached
/// VpnLinkSimulation).
struct TrafficBurst {
  std::size_t tunnel = 0;
  double packets_per_s = 10.0;
  double duration_s = 1.0;
};

/// End-to-end key agreement: transport `bits` of fresh key src -> dst over
/// the trusted-relay mesh.
struct KeyRequest {
  network::NodeId src = 0;
  network::NodeId dst = 0;
  std::size_t bits = 256;
};

/// Eve owns a relay from this instant: keys relayed through it are hers.
struct CompromiseNode {
  network::NodeId node = 0;
};

/// The relay is swept and re-trusted: frames relayed through it are clean
/// again (the recovery half of a relay-compromise campaign).
struct RestoreNode {
  network::NodeId node = 0;
};

/// `count` key-consuming client applications come online on the (src, dst)
/// endpoint pair: each registers with the attached client driver (the KMS
/// fleet) in QoS class `qos` and issues `bits`-bit key requests at
/// `request_rate_hz` until it departs. Scripted days ramp thousands of
/// clients up with a handful of these.
struct ClientArrival {
  network::NodeId src = 0;
  network::NodeId dst = 0;
  unsigned qos = 1;              // QoS class index (0 = highest priority)
  std::size_t count = 1;         // clients arriving together
  double request_rate_hz = 1.0;  // per-client get_key cadence
  std::size_t bits = 256;        // bits per request
};

/// `count` clients of that same (src, dst, qos) shape go offline (most
/// recently arrived first); their periodic requests stop and queued
/// requests are drained as departed.
struct ClientDeparture {
  network::NodeId src = 0;
  network::NodeId dst = 0;
  unsigned qos = 1;
  std::size_t count = 1;
};

/// Degrades one link's CLASSICAL channel — the framed byte stream the
/// distillation dialogue crosses, not the quantum fiber. Every control
/// frame pays `latency` one way (a lockstep dialogue stalls by
/// latency x messages, lowering the distilled rate without deadlock), is
/// lost with `loss_prob` (retransmission inflates the measured control
/// traffic) and reordered with `reorder_prob`. All-zero fields restore a
/// clean channel. Engine-backed links only; an analytic mesh simulates no
/// classical channel, so there the action is a recorded no-op.
struct ClassicalImpairment {
  network::LinkId link = 0;
  SimTime latency = 0;
  double loss_prob = 0.0;
  double reorder_prob = 0.0;
};

using ScenarioAction =
    std::variant<CutLink, RestoreLink, StartEavesdrop, StopEavesdrop,
                 TrafficBurst, KeyRequest, CompromiseNode, RestoreNode,
                 ClientArrival, ClientDeparture, ClassicalImpairment>;

/// Human-readable action tag for timeline annotations.
const char* action_name(const ScenarioAction& action);
/// One-line description (tag plus operands).
std::string describe(const ScenarioAction& action);

struct ScenarioEvent {
  SimTime at = 0;
  ScenarioAction action;
};

/// The script: an append-only list of timed actions. Order of same-instant
/// actions is the append order (the scheduler's FIFO tie-break preserves
/// it).
class Scenario {
 public:
  Scenario& at(SimTime when, ScenarioAction action);
  const std::vector<ScenarioEvent>& events() const { return events_; }

 private:
  std::vector<ScenarioEvent> events_;
};

// ---- Runner ---------------------------------------------------------------

/// Receives ClientArrival/ClientDeparture actions. The key-management
/// service lives ABOVE src/sim (src/kms links qkd_sim), so the runner
/// stays KMS-agnostic and the fleet plugs in through this seam
/// (kms::KmsClientFleet is the production implementation).
class ClientWorkloadDriver {
 public:
  virtual ~ClientWorkloadDriver() = default;
  virtual void client_arrival(SimTime now, const ClientArrival& arrival) = 0;
  virtual void client_departure(SimTime now,
                                const ClientDeparture& departure) = 0;
};

class ScenarioRunner {
 public:
  struct Config {
    /// TimelineRecorder sampling period.
    SimTime sample_interval = kSecond;
    /// Distillation-accrual tick for an analytic-rate mesh (engine-backed
    /// links schedule real per-frame batch events instead).
    double mesh_tick_s = 1.0;
    /// Retry delay when a gateway stays starved after a wakeup (its
    /// deadline reads "now" again); bounds the event rate of a starvation
    /// episode instead of livelocking at one instant.
    SimTime stalled_retry = 100 * kMillisecond;
  };

  struct KeyRequestOutcome {
    SimTime at = 0;
    KeyRequest request;
    network::MeshSimulation::TransportResult result;
  };

  explicit ScenarioRunner(Scenario scenario);
  ScenarioRunner(Scenario scenario, Config config);
  ~ScenarioRunner();

  /// Attach the stack under test; attached objects must outlive the
  /// registry's last snapshot. The mesh is bound into registry() as `mesh`.
  void attach_mesh(network::MeshSimulation& mesh);
  /// Attaching a VPN adopts ITS SimClock as the scenario timeline, so the
  /// gateways' SA lifetimes and IKE deadlines share the scheduler's time,
  /// and binds its gateways into registry() as `gw0` (A) and `gw1` (B).
  /// Attach before scheduling anything through scheduler().
  void attach_vpn(ipsec::VpnLinkSimulation& vpn);

  /// Packet factory for TrafficBurst events (sequence number -> plaintext
  /// packet). Required if the scenario contains TrafficBurst actions.
  void set_traffic_source(std::function<ipsec::IpPacket(std::uint64_t)> make);

  /// Receiver for ClientArrival/ClientDeparture actions (required if the
  /// scenario contains them); must outlive run().
  void attach_client_driver(ClientWorkloadDriver& driver);

  /// Schedules a periodic `engine.evaluate(now)` every `interval` during
  /// run() — the scheduler bridge the pull-based alert engine is designed
  /// for — plus one closing evaluation at the horizon, and installs a
  /// transition observer that annotates the recorder ("alert <rule>:
  /// pending -> firing"), so alert lifecycle changes interleave with the
  /// scripted actions on the timeline. The engine must outlive run();
  /// attaching replaces any observer previously set on it.
  void attach_alerts(obs::health::AlertEngine& engine,
                     SimTime interval = kSecond);

  /// Invariant-probe seam: invoked right after every scripted action has
  /// been applied, with the action's effects already visible in the
  /// attached stack. The scenario fuzzer asserts its global invariants
  /// here, after every event, instead of only at the horizon.
  void set_action_observer(
      std::function<void(SimTime, const ScenarioAction&)> observer);

  /// Runs the script: schedules every scenario action plus the stack
  /// drivers (producer batch completions, gateway deadlines, recorder
  /// sampling) and dispatches events until `horizon`, then takes a final
  /// sample. Returns the number of events dispatched.
  std::size_t run(SimTime horizon);

  /// As run(horizon), but the timeline advances through `sharded`'s
  /// windowed execution: everything the runner schedules stays on the
  /// global stream (total order preserved) while services that registered
  /// work on shard streams (a sharded KMS) advance in parallel between
  /// barriers. `sharded` must wrap this runner's scheduler().
  std::size_t run(ShardedScheduler& sharded, SimTime horizon);

  /// The registry the recorder samples and alert engines read.
  obs::MetricsRegistry& registry() { return registry_; }
  TimelineRecorder& recorder() { return recorder_; }
  const TimelineRecorder& recorder() const { return recorder_; }
  EventScheduler& scheduler() { return *scheduler_; }
  SimClock& clock() { return *clock_; }
  const std::vector<KeyRequestOutcome>& key_requests() const {
    return key_requests_;
  }

 private:
  /// Shared body of the run() overloads: `drive(horizon)` dispatches the
  /// scheduled timeline and returns the events-dispatched count.
  std::size_t run_with(SimTime horizon,
                       const std::function<std::size_t(SimTime)>& drive);
  void apply(SimTime now, const ScenarioAction& action);
  /// Accrues an analytic mesh's distillation exactly up to `now`, so
  /// actions and samples at any instant observe pools as of that instant
  /// (the periodic tick only sets the accrual cadence between
  /// observations). Engine-backed meshes accrue by batch events instead.
  void catch_up_mesh(SimTime now);
  void start_traffic(SimTime now, const TrafficBurst& burst);
  /// Schedules (or reschedules) the tunnel wakeup at the gateways' earliest
  /// deadline; called after every event that may have moved a deadline.
  void arm_vpn_deadline(SimTime now);
  void pump_vpn(SimTime now);

  Scenario scenario_;
  Config config_;
  SimClock own_clock_;
  SimClock* clock_ = &own_clock_;  // the VPN's clock once attached
  std::unique_ptr<EventScheduler> scheduler_;  // rebound by attach_vpn
  obs::MetricsRegistry registry_;
  TimelineRecorder recorder_{registry_};

  network::MeshSimulation* mesh_ = nullptr;
  SimTime mesh_accrued_to_ = 0;  // analytic mesh: accrual high-water mark
  ipsec::VpnLinkSimulation* vpn_ = nullptr;
  ClientWorkloadDriver* client_driver_ = nullptr;
  obs::health::AlertEngine* alerts_ = nullptr;
  SimTime alert_interval_ = kSecond;
  std::function<void(SimTime, const ScenarioAction&)> action_observer_;
  std::function<ipsec::IpPacket(std::uint64_t)> traffic_source_;
  std::uint64_t traffic_seq_ = 0;
  std::vector<KeyRequestOutcome> key_requests_;
  EventScheduler::Handle vpn_wakeup_;
  std::vector<std::uint64_t> supply_subscriptions_;  // [gateway] -> token
  bool running_ = false;
};

}  // namespace qkd::sim
