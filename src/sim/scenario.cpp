#include "src/sim/scenario.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/optics/attacks.hpp"
#include "src/sim/sharded_scheduler.hpp"

namespace qkd::sim {

const char* action_name(const ScenarioAction& action) {
  struct Namer {
    const char* operator()(const CutLink&) const { return "CutLink"; }
    const char* operator()(const RestoreLink&) const { return "RestoreLink"; }
    const char* operator()(const StartEavesdrop&) const {
      return "StartEavesdrop";
    }
    const char* operator()(const StopEavesdrop&) const {
      return "StopEavesdrop";
    }
    const char* operator()(const TrafficBurst&) const {
      return "TrafficBurst";
    }
    const char* operator()(const KeyRequest&) const { return "KeyRequest"; }
    const char* operator()(const CompromiseNode&) const {
      return "CompromiseNode";
    }
    const char* operator()(const RestoreNode&) const { return "RestoreNode"; }
    const char* operator()(const ClientArrival&) const {
      return "ClientArrival";
    }
    const char* operator()(const ClientDeparture&) const {
      return "ClientDeparture";
    }
    const char* operator()(const ClassicalImpairment&) const {
      return "ClassicalImpairment";
    }
  };
  return std::visit(Namer{}, action);
}

std::string describe(const ScenarioAction& action) {
  struct Describer {
    std::string operator()(const CutLink& a) const {
      return "CutLink link=" + std::to_string(a.link);
    }
    std::string operator()(const RestoreLink& a) const {
      return "RestoreLink link=" + std::to_string(a.link);
    }
    std::string operator()(const StartEavesdrop& a) const {
      return "StartEavesdrop link=" + std::to_string(a.link) +
             " fraction=" + std::to_string(a.intercept_fraction);
    }
    std::string operator()(const StopEavesdrop& a) const {
      return "StopEavesdrop link=" + std::to_string(a.link);
    }
    std::string operator()(const TrafficBurst& a) const {
      return "TrafficBurst " + std::to_string(a.packets_per_s) + " pkt/s for " +
             std::to_string(a.duration_s) + " s";
    }
    std::string operator()(const KeyRequest& a) const {
      return "KeyRequest " + std::to_string(a.src) + "->" +
             std::to_string(a.dst) + " bits=" + std::to_string(a.bits);
    }
    std::string operator()(const CompromiseNode& a) const {
      return "CompromiseNode node=" + std::to_string(a.node);
    }
    std::string operator()(const RestoreNode& a) const {
      return "RestoreNode node=" + std::to_string(a.node);
    }
    std::string operator()(const ClientArrival& a) const {
      return "ClientArrival " + std::to_string(a.count) + " x qos" +
             std::to_string(a.qos) + " " + std::to_string(a.src) + "->" +
             std::to_string(a.dst) + " @" +
             std::to_string(a.request_rate_hz) + "/s";
    }
    std::string operator()(const ClientDeparture& a) const {
      return "ClientDeparture " + std::to_string(a.count) + " x qos" +
             std::to_string(a.qos) + " " + std::to_string(a.src) + "->" +
             std::to_string(a.dst);
    }
    std::string operator()(const ClassicalImpairment& a) const {
      return "ClassicalImpairment link=" + std::to_string(a.link) +
             " latency=" + std::to_string(sim_to_seconds(a.latency)) +
             "s loss=" + std::to_string(a.loss_prob) +
             " reorder=" + std::to_string(a.reorder_prob);
    }
  };
  return std::visit(Describer{}, action);
}

Scenario& Scenario::at(SimTime when, ScenarioAction action) {
  if (when < 0)
    throw std::invalid_argument("Scenario::at: negative time");
  events_.push_back(ScenarioEvent{when, std::move(action)});
  return *this;
}

ScenarioRunner::ScenarioRunner(Scenario scenario)
    : ScenarioRunner(std::move(scenario), Config()) {}

ScenarioRunner::ScenarioRunner(Scenario scenario, Config config)
    : scenario_(std::move(scenario)),
      config_(config),
      scheduler_(std::make_unique<EventScheduler>(own_clock_)) {}

ScenarioRunner::~ScenarioRunner() {
  if (vpn_ != nullptr && supply_subscriptions_.size() == 2) {
    vpn_->a().key_supply().unsubscribe(supply_subscriptions_[0]);
    vpn_->b().key_supply().unsubscribe(supply_subscriptions_[1]);
  }
}

void ScenarioRunner::attach_mesh(network::MeshSimulation& mesh) {
  mesh_ = &mesh;
  mesh.bind_metrics(registry_, "mesh");
}

void ScenarioRunner::attach_vpn(ipsec::VpnLinkSimulation& vpn) {
  if (scheduler_->pending() > 0 || scheduler_->dispatched() > 0)
    throw std::logic_error(
        "ScenarioRunner::attach_vpn: attach before scheduling anything (the "
        "scheduler rebinds to the VPN's clock)");
  vpn_ = &vpn;
  clock_ = &vpn.clock();
  scheduler_ = std::make_unique<EventScheduler>(*clock_);
  vpn.a().bind_metrics(registry_, "gw0");
  vpn.b().bind_metrics(registry_, "gw1");
  // A replenished supply ends a starvation episode: wake the tunnel
  // immediately instead of waiting for the next scheduled deadline.
  const auto on_event = [this](const keystore::SupplyEvent& event) {
    if (event.kind == keystore::SupplyEventKind::kReplenished)
      arm_vpn_deadline(clock_->now());
  };
  supply_subscriptions_.push_back(vpn.a().key_supply().subscribe(on_event));
  supply_subscriptions_.push_back(vpn.b().key_supply().subscribe(on_event));
}

void ScenarioRunner::set_traffic_source(
    std::function<ipsec::IpPacket(std::uint64_t)> make) {
  traffic_source_ = std::move(make);
}

void ScenarioRunner::attach_client_driver(ClientWorkloadDriver& driver) {
  client_driver_ = &driver;
}

void ScenarioRunner::attach_alerts(obs::health::AlertEngine& engine,
                                   SimTime interval) {
  if (interval <= 0)
    throw std::invalid_argument(
        "ScenarioRunner::attach_alerts: interval must be > 0");
  alerts_ = &engine;
  alert_interval_ = interval;
  engine.set_transition_observer([this](const obs::health::Transition& t) {
    recorder_.note(t.at, std::string("alert ") + t.rule + ": " +
                             obs::health::alert_state_name(t.from) + " -> " +
                             obs::health::alert_state_name(t.to));
  });
}

void ScenarioRunner::set_action_observer(
    std::function<void(SimTime, const ScenarioAction&)> observer) {
  action_observer_ = std::move(observer);
}

void ScenarioRunner::pump_vpn(SimTime now) {
  vpn_->pump();
  arm_vpn_deadline(now);
}

void ScenarioRunner::catch_up_mesh(SimTime now) {
  if (mesh_ == nullptr || mesh_->key_service() != nullptr) return;
  if (now <= mesh_accrued_to_) return;
  mesh_->step(sim_to_seconds(now - mesh_accrued_to_));
  mesh_accrued_to_ = now;
}

void ScenarioRunner::arm_vpn_deadline(SimTime now) {
  if (vpn_ == nullptr) return;
  std::optional<SimTime> deadline = vpn_->a().next_deadline(now);
  const auto b_deadline = vpn_->b().next_deadline(now);
  if (b_deadline.has_value() &&
      (!deadline.has_value() || *b_deadline < *deadline))
    deadline = b_deadline;
  if (vpn_wakeup_.valid()) scheduler_->cancel(vpn_wakeup_);
  vpn_wakeup_ = EventScheduler::Handle();
  if (!deadline.has_value()) return;
  // A deadline that still reads "now" right after a pump means a gateway is
  // starved and stays starved; back off instead of respinning this instant.
  const SimTime when =
      *deadline <= now ? now + config_.stalled_retry : *deadline;
  vpn_wakeup_ = scheduler_->at(when, [this](SimTime t) {
    vpn_wakeup_ = EventScheduler::Handle();  // consumed
    pump_vpn(t);
  });
}

void ScenarioRunner::start_traffic(SimTime now, const TrafficBurst& burst) {
  if (vpn_ == nullptr)
    throw std::logic_error("ScenarioRunner: TrafficBurst without a VPN");
  if (burst.tunnel != 0)
    throw std::logic_error(
        "ScenarioRunner: TrafficBurst tunnel " +
        std::to_string(burst.tunnel) +
        " — only tunnel 0 (the attached VpnLinkSimulation) exists");
  if (!traffic_source_)
    throw std::logic_error(
        "ScenarioRunner: TrafficBurst without set_traffic_source()");
  if (burst.packets_per_s <= 0.0 || burst.duration_s <= 0.0)
    throw std::invalid_argument("ScenarioRunner: degenerate TrafficBurst");
  const auto total = static_cast<std::uint64_t>(
      std::max(1.0, burst.packets_per_s * burst.duration_s));
  const SimTime period = std::max<SimTime>(
      1, seconds_to_sim(1.0 / burst.packets_per_s));
  auto remaining = std::make_shared<std::uint64_t>(total);
  auto handle = std::make_shared<EventScheduler::Handle>();
  *handle = scheduler_->every(0, period, [this, remaining,
                                          handle](SimTime t) {
    vpn_->a().submit_plaintext(traffic_source_(traffic_seq_++), t);
    pump_vpn(t);
    if (--*remaining == 0) scheduler_->cancel(*handle);
  });
  (void)now;
}

void ScenarioRunner::apply(SimTime now, const ScenarioAction& action) {
  catch_up_mesh(now);  // act on pools as of this instant, not the last tick
  recorder_.note(now, describe(action));
  struct Applier {
    ScenarioRunner& r;
    SimTime now;

    qkd::network::LinkKeyService* vpn_feed() const {
      return r.vpn_ != nullptr ? r.vpn_->key_service() : nullptr;
    }

    void operator()(const CutLink& a) const {
      if (r.mesh_ != nullptr) {
        r.mesh_->cut_link(a.link);
      } else if (auto* feed = vpn_feed()) {
        feed->set_link_enabled(a.link, false);
      } else {
        throw std::logic_error("ScenarioRunner: CutLink with nothing attached");
      }
    }
    void operator()(const RestoreLink& a) const {
      if (r.mesh_ != nullptr) {
        r.mesh_->restore_link(a.link);
      } else if (auto* feed = vpn_feed()) {
        feed->set_link_enabled(a.link, true);
      } else {
        throw std::logic_error(
            "ScenarioRunner: RestoreLink with nothing attached");
      }
    }
    void operator()(const StartEavesdrop& a) const {
      if (r.mesh_ != nullptr) {
        r.mesh_->eavesdrop_link(a.link, a.intercept_fraction);
      } else if (r.vpn_ != nullptr && r.vpn_->key_service() != nullptr) {
        r.vpn_->set_feed_attack(
            std::make_unique<qkd::optics::InterceptResendAttack>(
                a.intercept_fraction));
      } else {
        throw std::logic_error(
            "ScenarioRunner: StartEavesdrop with nothing attached");
      }
    }
    void operator()(const StopEavesdrop& a) const {
      if (r.mesh_ != nullptr) {
        r.mesh_->eavesdrop_link(a.link, 0.0);
        // The alarm abandoned the link; Eve leaving puts it back in
        // service (a concurrent fiber cut stays cut).
        if (r.mesh_->topology().link(a.link).state ==
            network::LinkState::kEavesdropped)
          r.mesh_->restore_link(a.link);
      } else if (r.vpn_ != nullptr && r.vpn_->key_service() != nullptr) {
        r.vpn_->set_feed_attack(nullptr);
      } else {
        throw std::logic_error(
            "ScenarioRunner: StopEavesdrop with nothing attached");
      }
    }
    void operator()(const TrafficBurst& a) const { r.start_traffic(now, a); }
    void operator()(const KeyRequest& a) const {
      if (r.mesh_ == nullptr)
        throw std::logic_error("ScenarioRunner: KeyRequest without a mesh");
      KeyRequestOutcome outcome;
      outcome.at = now;
      outcome.request = a;
      outcome.result = r.mesh_->transport_key(a.src, a.dst, a.bits);
      r.recorder_.note(
          now, std::string("  -> ") +
                   (outcome.result.success ? "delivered" : "failed") +
                   ", hops=" + std::to_string(outcome.result.route.hop_count()));
      r.key_requests_.push_back(std::move(outcome));
    }
    void operator()(const CompromiseNode& a) const {
      if (r.mesh_ == nullptr)
        throw std::logic_error(
            "ScenarioRunner: CompromiseNode without a mesh");
      r.mesh_->compromise_node(a.node);
    }
    void operator()(const RestoreNode& a) const {
      if (r.mesh_ == nullptr)
        throw std::logic_error("ScenarioRunner: RestoreNode without a mesh");
      r.mesh_->restore_node(a.node);
    }
    void operator()(const ClientArrival& a) const {
      if (r.client_driver_ == nullptr)
        throw std::logic_error(
            "ScenarioRunner: ClientArrival without attach_client_driver()");
      r.client_driver_->client_arrival(now, a);
    }
    void operator()(const ClientDeparture& a) const {
      if (r.client_driver_ == nullptr)
        throw std::logic_error(
            "ScenarioRunner: ClientDeparture without attach_client_driver()");
      r.client_driver_->client_departure(now, a);
    }
    void operator()(const ClassicalImpairment& a) const {
      qkd::net::ClassicalConditions conditions;
      conditions.latency = a.latency;
      conditions.loss_prob = a.loss_prob;
      conditions.reorder_prob = a.reorder_prob;
      if (r.mesh_ != nullptr) {
        if (!r.mesh_->set_classical_conditions(a.link, conditions))
          r.recorder_.note(
              now, "  -> no-op: analytic mesh has no classical channel");
      } else if (auto* feed = vpn_feed()) {
        feed->session(a.link).channel().set_conditions(
            conditions, 0x57A11EDULL ^ a.link);
      } else {
        throw std::logic_error(
            "ScenarioRunner: ClassicalImpairment with nothing attached");
      }
    }
  };
  std::visit(Applier{*this, now}, action);
  if (action_observer_) action_observer_(now, action);
}

std::size_t ScenarioRunner::run(SimTime horizon) {
  return run_with(horizon, [this](SimTime until) {
    return scheduler_->run_until(until);
  });
}

std::size_t ScenarioRunner::run(ShardedScheduler& sharded, SimTime horizon) {
  if (&sharded.global() != scheduler_.get())
    throw std::logic_error(
        "ScenarioRunner::run: the ShardedScheduler must wrap this runner's "
        "scheduler()");
  return run_with(horizon, [&sharded](SimTime until) {
    return sharded.run_until(until);
  });
}

std::size_t ScenarioRunner::run_with(
    SimTime horizon, const std::function<std::size_t(SimTime)>& drive) {
  if (running_)
    throw std::logic_error("ScenarioRunner::run: already ran");
  running_ = true;
  if (horizon < clock_->now())
    throw std::invalid_argument("ScenarioRunner::run: horizon precedes now");

  // Analytic distillation is accrued exactly up to every observation
  // instant (catch_up_mesh runs before each sample and each scripted
  // action), so same-instant ordering between driver ticks and actions is
  // immaterial; engine-backed links produce at real batch boundaries, and
  // an action between batches sees the last completed batch — as it would
  // on hardware.
  scheduler_->every(config_.sample_interval, config_.sample_interval,
                    [this](SimTime t) {
                      catch_up_mesh(t);
                      recorder_.sample(t);
                    });

  if (alerts_ != nullptr) {
    // Alert evaluation is its own periodic event (not piggybacked on
    // sampling) so the evaluation cadence — and with it for_duration
    // debounce resolution — is configured independently of the recorder.
    scheduler_->every(alert_interval_, alert_interval_, [this](SimTime t) {
      catch_up_mesh(t);
      alerts_->evaluate(t);
    });
  }

  if (mesh_ != nullptr) {
    if (auto* service = mesh_->key_service()) {
      // Engine-backed links: one self-paced batch-completion event chain
      // per link. The next completion lands after the duration the batch
      // ACTUALLY took — on a clean channel exactly the Qframe period, but
      // a ClassicalImpairment's latency stall (folded into the batch's
      // duration_s) stretches the cadence, so a degraded classical channel
      // lowers the distilled rate on the timeline, not just on paper. Each
      // event schedules a copy of its chain, so no chain owns itself.
      struct BatchChain {
        ScenarioRunner* runner;
        network::LinkKeyService* service;
        network::LinkId id;
        SimTime frame;
        void operator()(SimTime now) const {
          SimTime next = frame;
          if (runner->mesh_->topology().link(id).usable()) {
            const double before = service->session(id).totals().duration_s;
            service->run_link_batch(id);
            const double took =
                service->session(id).totals().duration_s - before;
            if (took > 0.0) next = seconds_to_sim(took);
          }
          runner->scheduler_->at(now + next, *this);
        }
      };
      for (const network::Link& link : mesh_->topology().links()) {
        const SimTime frame =
            seconds_to_sim(service->link_frame_duration_s(link.id));
        scheduler_->at(frame, BatchChain{this, service, link.id, frame});
      }
    } else {
      // Accrual cadence between observations (keeps long idle stretches
      // from accruing in one jump at the next sample).
      const SimTime tick = seconds_to_sim(config_.mesh_tick_s);
      scheduler_->every(tick, tick,
                        [this](SimTime t) { catch_up_mesh(t); });
    }
  }

  if (vpn_ != nullptr) {
    if (auto* feed = vpn_->key_service()) {
      // The tunnel's QKD feed: scheduled batch completions, each followed
      // by a pump so the gateways react to fresh key at delivery time.
      const SimTime frame = seconds_to_sim(feed->link_frame_duration_s(0));
      scheduler_->every(frame, frame, [this, feed](SimTime t) {
        feed->run_link_batch(0);
        pump_vpn(t);
      });
    }
    arm_vpn_deadline(clock_->now());
  }

  for (const ScenarioEvent& event : scenario_.events()) {
    scheduler_->at(event.at, [this, &event](SimTime t) {
      apply(t, event.action);
      if (vpn_ != nullptr) arm_vpn_deadline(t);
    });
  }

  const std::size_t dispatched = drive(horizon);
  // Close the series at the horizon (unless periodic sampling just did).
  catch_up_mesh(horizon);
  if (recorder_.points().empty() || recorder_.points().back().t != horizon)
    recorder_.sample(clock_->now());
  if (alerts_ != nullptr && alerts_->last_evaluated() < horizon)
    alerts_->evaluate(horizon);
  return dispatched;
}

}  // namespace qkd::sim
