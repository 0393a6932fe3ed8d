#include "src/network/key_transport.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/qkd/entropy.hpp"

namespace qkd::network {
namespace {

double binary_entropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

/// Expected QBER of a link including any intercept-resend fraction.
double link_qber(const Link& link, double intercept_fraction) {
  const qkd::optics::LinkModel model(link.optics);
  const double base = model.expected_qber();
  return base + 0.25 * intercept_fraction * (1.0 - base);
}

}  // namespace

double estimated_distill_fraction(const qkd::optics::LinkModel& model) {
  const double q = model.expected_qber();
  if (q >= 0.11) return 0.0;  // QBER alarm: link abandoned
  const double ec_cost = 1.2 * binary_entropy(q);       // classic Cascade
  const double bennett = 2.0 * std::sqrt(2.0) * q;      // defense function
  const double multi =
      qkd::proto::conditional_multi_photon_probability(
          model.params().mean_photon_number);
  return std::max(0.0, 1.0 - ec_cost - bennett - multi);
}

double link_distill_rate_bps(const Link& link) {
  if (!link.usable()) return 0.0;
  const qkd::optics::LinkModel model(link.optics);
  return model.sifted_rate_bps() * estimated_distill_fraction(model);
}

MeshSimulation::MeshSimulation(Topology topology, std::uint64_t seed)
    : topology_(std::move(topology)),
      rng_(seed),
      pools_(topology_.link_count(), 0.0),
      eavesdrop_fraction_(topology_.link_count(), 0.0),
      compromised_(topology_.node_count(), 0) {}

MeshSimulation::MeshSimulation(Topology topology, std::uint64_t seed,
                               LinkKeyService::Config engine)
    : topology_(std::move(topology)),
      rng_(seed),
      rate_model_(RateModel::kEngine),
      pools_(topology_.link_count(), 0.0),
      eavesdrop_fraction_(topology_.link_count(), 0.0),
      compromised_(topology_.node_count(), 0) {
  engine.seed = seed;
  service_ = std::make_unique<LinkKeyService>(topology_, engine);
}

void MeshSimulation::sync_engine_link_states() {
  for (const Link& link : topology_.links())
    service_->set_link_enabled(link.id, link.usable());
}

void MeshSimulation::purge_pool(LinkId link) {
  pools_[link] = 0.0;
  // Engine mode: the accumulated key lives in the link's supply; a cut or
  // abandoned link's material is discarded with it.
  if (service_) service_->supply(link).take_all("MeshSimulation::purge_pool");
}

double MeshSimulation::link_pool_bits(LinkId link) const {
  if (rate_model_ == RateModel::kEngine)
    return static_cast<double>(service_->supply(link).available_bits());
  return pools_.at(link);
}

void MeshSimulation::step(double dt_seconds) {
  if (rate_model_ == RateModel::kEngine) {
    // Real distillation: the engines charge for sub-alarm eavesdropping on
    // their own (the entropy estimate sees the induced errors), and an
    // abandoned/cut link simply runs no batches. Accepted batches land in
    // each link's KeySupply; transport_key() withdraws from there.
    sync_engine_link_states();
    service_->advance(dt_seconds);
    return;
  }
  for (const Link& link : topology_.links()) {
    if (!link.usable()) continue;
    // Eavesdropping below the alarm threshold still costs key: the entropy
    // estimate charges for the induced errors.
    const double q = link_qber(link, eavesdrop_fraction_[link.id]);
    if (q >= 0.11) continue;
    qkd::optics::LinkModel model(link.optics);
    const double fraction =
        std::max(0.0, 1.0 - 1.2 * binary_entropy(q) -
                          2.0 * std::sqrt(2.0) * q -
                          qkd::proto::conditional_multi_photon_probability(
                              link.optics.mean_photon_number));
    pools_[link.id] += model.sifted_rate_bps() * fraction * dt_seconds;
  }
}

void MeshSimulation::run_on_clock(qkd::SimClock& clock, double seconds,
                                  double tick_seconds) {
  qkd::advance_clock_stepped(clock, seconds, qkd::seconds_to_sim(tick_seconds),
                             [this](double dt_seconds) { step(dt_seconds); });
}

MeshSimulation::TransportResult MeshSimulation::transport_key(
    NodeId src, NodeId dst, std::size_t bits) {
  return transport_key_batch(src, dst, {bits});
}

MeshSimulation::TransportResult MeshSimulation::transport_key_batch(
    NodeId src, NodeId dst, const std::vector<std::size_t>& request_bits,
    obs::TraceContext trace) {
  if (request_bits.empty())
    throw std::invalid_argument("MeshSimulation: empty transport batch");
  std::size_t payload_bits = 0;
  for (std::size_t bits : request_bits) {
    if (bits == 0)
      throw std::invalid_argument(
          "MeshSimulation: zero-bit request in transport batch");
    payload_bits += bits;
  }
  // Uncached plan: routes every frame against the global last-route memo
  // (the legacy reroute accounting) and finalizes on the mesh's own rng —
  // the draw order (key, then analytic pads hop by hop) is unchanged.
  return finalize_frame(
      plan_key_batch(src, dst, payload_bits, nullptr, trace), rng_);
}

MeshSimulation::FramePlan MeshSimulation::plan_key_batch(NodeId src,
                                                         NodeId dst,
                                                         std::size_t payload_bits,
                                                         RouteCache* cache,
                                                         obs::TraceContext trace) {
  if (payload_bits == 0)
    throw std::invalid_argument("MeshSimulation: zero-bit transport plan");
  // One frame per hop: the concatenated payloads plus the header+tag
  // overhead, all of it OTP-encrypted under the hop's pairwise pad.
  const std::size_t frame_bits = payload_bits + kFrameOverheadBits;

  // recording() gates the attr formatting so a disabled tracer costs the
  // span constructor's single branch, not std::to_string allocations.
  obs::ScopedSpan plan_span(tracer_, "mesh.plan", trace);
  if (plan_span.recording()) {
    plan_span.attr("src", std::to_string(src));
    plan_span.attr("dst", std::to_string(dst));
    plan_span.attr("payload_bits", std::to_string(payload_bits));
  }

  FramePlan plan;
  plan.payload_bits = payload_bits;
  ++stats_.transports_attempted;

  const double need = static_cast<double>(frame_bits);
  const auto affordable = [this, need](const Route& route) {
    for (LinkId link_id : route.links)
      if (link_pool_bits(link_id) < need) return false;
    return true;
  };

  std::optional<Route> route;
  if (cache != nullptr && cache->route.has_value() &&
      cache->version == topology_version_ && affordable(*cache->route)) {
    route = cache->route;  // hot path: no Dijkstra, no reroute
  } else {
    // Prefer key-rich links that skirt compromised relays: cost = 1 plus a
    // shortage penalty plus a trust penalty (either makes the link a last
    // resort, never absent — a starved or owned path still beats no path).
    const auto cost = [this, need](const Link& link) {
      const double pool = link_pool_bits(link.id);
      double c = pool >= need ? 1.0 : 1000.0;
      if (node_compromised(link.a) || node_compromised(link.b)) c += 1000.0;
      return c;
    };
    route = shortest_route(topology_, src, dst, cost);
    if (!route.has_value()) {
      if (cache != nullptr) cache->route.reset();
      ++stats_.transports_no_route;
      plan_span.attr("result", "no-route");
      return plan;
    }
    if (cache != nullptr) {
      // Per-caller reroute accounting: this pair's route changed.
      if (cache->route.has_value() && cache->route->links != route->links)
        ++stats_.reroutes;
      cache->route = route;
      cache->version = topology_version_;
    }
  }
  if (cache == nullptr) {
    if (last_route_.has_value() && last_route_->links != route->links)
      ++stats_.reroutes;
    last_route_ = route;
  }
  plan.route = *route;

  // Check every hop can afford the frame before consuming anything.
  if (!affordable(*route)) {
    ++stats_.transports_starved;
    plan_span.attr("result", "starved");
    return plan;
  }

  // Consume the hop pads now, sequentially: engine mode withdraws the
  // actual distilled bits from each link's KeySupply (both link ends hold
  // the same stream); analytic mode only debits the rate-model pool — the
  // simulated pad bits are drawn later, inside finalize_frame.
  for (std::size_t hop = 0; hop < route->links.size(); ++hop) {
    const LinkId link_id = route->links[hop];
    obs::ScopedSpan hop_span(tracer_, "mesh.hop", plan_span.context());
    if (rate_model_ == RateModel::kEngine) {
      plan.hop_pads.push_back(
          service_->supply(link_id)
              .request_bits(frame_bits, "MeshSimulation::transport_key")
              ->bits);
    } else {
      pools_[link_id] -= need;
    }
    plan.pool_bits_consumed += frame_bits;
    // The far end of the hop decrypts; if it is a relay, the key will sit
    // in its memory in the clear.
    const NodeId holder = route->nodes[hop + 1];
    if (topology_.node(holder).kind == NodeKind::kTrustedRelay)
      plan.exposed_to.push_back(holder);
    if (hop_span.recording()) {
      hop_span.attr("link", std::to_string(link_id));
      hop_span.attr("to_node", std::to_string(holder));
      hop_span.attr("pad_bits", std::to_string(frame_bits));
    }
  }

  for (NodeId relay : plan.exposed_to)
    if (node_compromised(relay)) plan.compromised = true;
  if (plan.compromised) ++stats_.transports_compromised;

  plan.success = true;
  ++stats_.transports_succeeded;
  if (plan_span.recording()) {
    plan_span.attr("hops", std::to_string(route->links.size()));
    plan_span.attr("exposed_relays", std::to_string(plan.exposed_to.size()));
    if (plan.compromised) plan_span.attr("compromised", "true");
  }
  return plan;
}

MeshSimulation::TransportResult MeshSimulation::finalize_frame(
    const FramePlan& plan, qkd::Rng& rng) {
  TransportResult result;
  result.route = plan.route;
  result.exposed_to = plan.exposed_to;
  result.compromised = plan.compromised;
  result.pool_bits_consumed = plan.pool_bits_consumed;
  if (!plan.success) return result;

  const std::size_t frame_bits = plan.payload_bits + kFrameOverheadBits;
  // Hop-by-hop one-time-pad relay. The key leaves the source encrypted,
  // is decrypted and re-encrypted inside every relay, and arrives intact.
  result.key = rng.next_bits(plan.payload_bits);
  qkd::BitVector in_flight = result.key;
  for (std::size_t hop = 0; hop < plan.route.links.size(); ++hop) {
    const qkd::BitVector pad = plan.hop_pads.empty()
                                   ? rng.next_bits(frame_bits)
                                   : plan.hop_pads[hop];
    const qkd::BitVector payload_pad = pad.slice(0, plan.payload_bits);
    qkd::BitVector ciphertext = in_flight;
    ciphertext ^= payload_pad;  // encrypted on the wire (tag under the rest)
    in_flight = ciphertext;
    in_flight ^= payload_pad;
  }
  if (!(in_flight == result.key))
    throw std::logic_error("MeshSimulation: relay chain corrupted the key");

  result.success = true;
  return result;
}

void MeshSimulation::bind_metrics(obs::MetricsRegistry& registry,
                                  std::string prefix) {
  registry.add_collector([this, prefix = std::move(prefix)](
                             obs::MetricsRegistry::Collect& out) {
    out.counter(prefix + "_transports_attempted", stats_.transports_attempted);
    out.counter(prefix + "_transports_succeeded", stats_.transports_succeeded);
    out.counter(prefix + "_transports_no_route", stats_.transports_no_route);
    out.counter(prefix + "_transports_starved", stats_.transports_starved);
    out.counter(prefix + "_reroutes", stats_.reroutes);
    out.counter(prefix + "_transports_compromised",
                stats_.transports_compromised);
    double pool_bits = 0.0;
    std::size_t unusable = 0;
    for (const Link& link : topology_.links()) {
      const double pool = link_pool_bits(link.id);
      pool_bits += pool;
      if (!link.usable()) ++unusable;
      // Per-link health gauges, the signals the paper's alarms watch:
      // QBER in percent (intercept-resend drives it toward ~25%; the
      // protocol abandons the link at 11%), the pooled bits behind it, and
      // whether routing may use the link (1) or abandoned it (0).
      const std::string id = std::to_string(link.id);
      out.gauge(prefix + "_link" + id + "_qber_percent",
                100.0 * link_qber(link, eavesdrop_fraction_[link.id]));
      out.gauge(prefix + "_link" + id + "_pool_bits", pool);
      out.gauge(prefix + "_link" + id + "_usable", link.usable() ? 1.0 : 0.0);
    }
    out.gauge(prefix + "_pool_bits_total", pool_bits);
    out.gauge(prefix + "_links_unusable", static_cast<double>(unusable));
  });
}

void MeshSimulation::cut_link(LinkId link) {
  topology_.link(link).state = LinkState::kCut;
  purge_pool(link);
  if (service_) service_->set_link_enabled(link, false);
  ++topology_version_;
}

bool MeshSimulation::set_classical_conditions(
    LinkId link, const qkd::net::ClassicalConditions& conditions) {
  if (!service_) return false;  // analytic mode has no classical channel
  // Seed per link so two impaired links drop/reorder independently.
  service_->session(link).channel().set_conditions(conditions,
                                                   0x57A11EDULL ^ link);
  return true;
}

double MeshSimulation::eavesdrop_link(LinkId link, double intercept_fraction) {
  eavesdrop_fraction_[link] = intercept_fraction;
  if (service_) {
    // The engine meets Eve on the quantum channel itself; her key cost (or
    // the QBER alarm) then comes out of the pipeline, not a formula.
    service_->set_attack(
        link, intercept_fraction > 0.0
                  ? std::make_unique<qkd::optics::InterceptResendAttack>(
                        intercept_fraction)
                  : nullptr);
  }
  const double q = link_qber(topology_.link(link), intercept_fraction);
  if (q >= 0.11) {
    // "too much eavesdropping or noise — that link is abandoned".
    topology_.link(link).state = LinkState::kEavesdropped;
    purge_pool(link);
  }
  ++topology_version_;
  return q;
}

void MeshSimulation::compromise_node(NodeId node) {
  compromised_.at(node) = 1;
  ++topology_version_;  // routing costs changed: cached routes go stale
}

void MeshSimulation::restore_node(NodeId node) {
  compromised_.at(node) = 0;
  ++topology_version_;
}

bool MeshSimulation::node_compromised(NodeId node) const {
  return node < compromised_.size() && compromised_[node] != 0;
}

void MeshSimulation::restore_link(LinkId link) {
  topology_.link(link).state = LinkState::kUp;
  eavesdrop_fraction_[link] = 0.0;
  if (service_) {
    service_->set_attack(link, nullptr);
    service_->set_link_enabled(link, true);
  }
  ++topology_version_;
}

}  // namespace qkd::network
