#include "src/obs/health/alert.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "src/common/logging.hpp"

namespace qkd::obs::health {

const char* condition_kind(const AlertCondition& condition) {
  struct Visitor {
    const char* operator()(const Threshold&) const { return "threshold"; }
    const char* operator()(const RateOfChange&) const {
      return "rate_of_change";
    }
    const char* operator()(const Absence&) const { return "absence"; }
    const char* operator()(const QuantileAbove&) const { return "quantile"; }
    const char* operator()(const SloBurnRate&) const { return "slo_burn_rate"; }
  };
  return std::visit(Visitor{}, condition);
}

const char* alert_state_name(AlertState state) {
  switch (state) {
    case AlertState::kInactive:
      return "inactive";
    case AlertState::kPending:
      return "pending";
    case AlertState::kFiring:
      return "firing";
    case AlertState::kResolved:
      return "resolved";
  }
  return "?";
}

namespace {

bool compare(Comparison op, double value, double bound) {
  return op == Comparison::kGreater ? value > bound : value < bound;
}

}  // namespace

AlertEngine::AlertEngine(const MetricsRegistry& registry)
    : registry_(registry) {}

void AlertEngine::track(const std::string& metric, qkd::SimTime window) {
  MetricHistory& history = history_[metric];
  history.max_window = std::max(history.max_window, window);
}

void AlertEngine::add_rule(AlertRule rule) {
  if (rule.name.empty())
    throw std::invalid_argument("AlertEngine: rule with empty name");
  if (rule_index_.count(rule.name) != 0)
    throw std::invalid_argument("AlertEngine: duplicate rule \"" + rule.name +
                                "\"");
  // Register the rule's metrics for history tracking (window conditions
  // need samples from past ticks; instantaneous ones still feed Absence's
  // last-changed bookkeeping).
  struct Visitor {
    AlertEngine& engine;
    void operator()(const Threshold& c) const { engine.track(c.metric, 0); }
    void operator()(const RateOfChange& c) const {
      if (c.window <= 0)
        throw std::invalid_argument("AlertEngine: RateOfChange window <= 0");
      engine.track(c.metric, c.window);
    }
    void operator()(const Absence& c) const {
      if (c.stale_after <= 0)
        throw std::invalid_argument("AlertEngine: Absence stale_after <= 0");
      engine.track(c.metric, c.stale_after);
    }
    void operator()(const QuantileAbove& c) const { engine.track(c.metric, 0); }
    void operator()(const SloBurnRate& c) const {
      if (c.short_window <= 0 || c.long_window < c.short_window)
        throw std::invalid_argument(
            "AlertEngine: SloBurnRate windows must satisfy 0 < short <= long");
      if (c.objective <= 0.0 || c.objective >= 1.0)
        throw std::invalid_argument(
            "AlertEngine: SloBurnRate objective must be in (0, 1)");
      engine.track(c.good_metric, c.long_window);
      engine.track(c.total_metric, c.long_window);
    }
  };
  std::visit(Visitor{*this}, rule.condition);

  rule_index_[rule.name] = rules_.size();
  RuleState rs;
  rs.rule = std::move(rule);
  rules_.push_back(std::move(rs));
}

std::optional<double> AlertEngine::window_delta(const std::string& metric,
                                                qkd::SimTime window,
                                                qkd::SimTime now) const {
  const auto it = history_.find(metric);
  if (it == history_.end()) return std::nullopt;
  const auto& points = it->second.points;
  if (points.size() < 2) return std::nullopt;
  // The newest point at or before the window start; the window must be
  // covered (oldest retained point no later than now - window) so a young
  // engine never reports a rate off a partial window.
  const qkd::SimTime start = now - window;
  if (points.front().at > start) return std::nullopt;
  const HistoryPoint* base = &points.front();
  for (const HistoryPoint& p : points) {
    if (p.at > start) break;
    base = &p;
  }
  return points.back().value - base->value;
}

double AlertEngine::burn_rate(const SloBurnRate& slo, qkd::SimTime window,
                              qkd::SimTime now) const {
  const auto good = window_delta(slo.good_metric, window, now);
  const auto total = window_delta(slo.total_metric, window, now);
  if (!good || !total || *total <= 0.0) return 0.0;
  const double bad_fraction = std::max(0.0, (*total - *good) / *total);
  return bad_fraction / (1.0 - slo.objective);
}

std::pair<bool, double> AlertEngine::evaluate_condition(
    const AlertCondition& condition, qkd::SimTime now) const {
  struct Visitor {
    const AlertEngine& engine;
    qkd::SimTime now;

    std::pair<bool, double> operator()(const Threshold& c) const {
      const auto it = engine.snapshot_.find(c.metric);
      if (it == engine.snapshot_.end()) return {false, 0.0};
      return {compare(c.op, it->second, c.bound), it->second};
    }
    std::pair<bool, double> operator()(const RateOfChange& c) const {
      const auto delta = engine.window_delta(c.metric, c.window, now);
      if (!delta) return {false, 0.0};
      const double rate = *delta / qkd::sim_to_seconds(c.window);
      return {compare(c.op, rate, c.bound_per_s), rate};
    }
    std::pair<bool, double> operator()(const Absence& c) const {
      const auto it = engine.history_.find(c.metric);
      if (it == engine.history_.end() || !it->second.present)
        return {true, 0.0};  // never seen at all: maximally absent
      const qkd::SimTime idle = now - it->second.last_changed;
      return {idle >= c.stale_after, qkd::sim_to_seconds(idle)};
    }
    std::pair<bool, double> operator()(const QuantileAbove& c) const {
      const Histogram* histogram = engine.registry_.find_histogram(c.metric);
      if (histogram == nullptr || histogram->count() == 0) return {false, 0.0};
      const double value = histogram->quantile(c.quantile);
      return {value > c.bound, value};
    }
    std::pair<bool, double> operator()(const SloBurnRate& c) const {
      const double short_burn = engine.burn_rate(c, c.short_window, now);
      const double long_burn = engine.burn_rate(c, c.long_window, now);
      return {short_burn > c.burn_threshold && long_burn > c.burn_threshold,
              short_burn};
    }
  };
  return std::visit(Visitor{*this, now}, condition);
}

bool AlertEngine::bound(const AlertCondition& condition) const {
  const auto seen = [this](const std::string& m) { return snapshot_.count(m); };
  return std::visit(
      [&seen](const auto& c) {
        using Condition = std::decay_t<decltype(c)>;
        if constexpr (std::is_same_v<Condition, Absence>) return true;
        else if constexpr (std::is_same_v<Condition, SloBurnRate>)
          return seen(c.good_metric) + seen(c.total_metric) == 2;
        else return seen(c.metric) == 1;
      },
      condition);
}

void AlertEngine::transition(RuleState& rs, AlertState to, qkd::SimTime now) {
  Transition t;
  t.at = now;
  t.rule = rs.rule.name;
  t.from = rs.state;
  t.to = to;
  t.value = rs.last_value;
  rs.state = to;
  transitions_.push_back(t);
  ++stats_.transitions;
  QKD_LOG(kDebug) << "alert " << t.rule << ": " << alert_state_name(t.from)
                  << " -> " << alert_state_name(t.to) << " (value "
                  << t.value << ")";
  if (observer_) observer_(transitions_.back());
}

void AlertEngine::evaluate(qkd::SimTime now) {
  if (now < last_evaluated_)
    throw std::invalid_argument("AlertEngine: evaluate() going backwards");
  last_evaluated_ = now;
  ++stats_.evaluations;

  // One snapshot per tick: every rule sees the same instant.
  const std::vector<MetricSample> samples = registry_.snapshot();
  require_unique_names(samples, "AlertEngine");
  snapshot_.clear();
  snapshot_p99_.clear();
  for (const MetricSample& sample : samples) {
    snapshot_[sample.name] = sample.value;
    if (sample.kind == MetricKind::kHistogram)
      snapshot_p99_[sample.name] = sample.p99;
  }

  // Advance the tracked histories (only metrics some rule references).
  for (auto& [name, history] : history_) {
    const auto it = snapshot_.find(name);
    if (it == snapshot_.end()) continue;
    const double value = it->second;
    if (!history.present || history.points.empty() ||
        history.points.back().value != value) {
      history.last_changed = now;
    }
    history.present = true;
    history.points.push_back({now, value});
    // Retain one point at or before the window start so window_delta can
    // anchor a full window; everything older is dead weight.
    const qkd::SimTime horizon = now - history.max_window;
    while (history.points.size() > 1 && history.points[1].at <= horizon)
      history.points.pop_front();
  }

  unbound_rules_ = 0;
  for (RuleState& rs : rules_) {
    if (!bound(rs.rule.condition)) ++unbound_rules_;
    const auto [active, value] =
        evaluate_condition(rs.rule.condition, now);
    ++stats_.conditions_evaluated;
    rs.last_value = value;
    switch (rs.state) {
      case AlertState::kInactive:
      case AlertState::kResolved:
        if (active) {
          rs.peak_value = value;
          if (rs.rule.for_duration <= 0) {
            rs.pending_since = -1;
            transition(rs, AlertState::kFiring, now);
          } else {
            rs.pending_since = now;
            transition(rs, AlertState::kPending, now);
          }
        }
        break;
      case AlertState::kPending:
        if (!active) {
          // The condition released before the debounce elapsed: back to
          // where the episode started (a resolved rule stays resolved).
          rs.pending_since = -1;
          transition(rs,
                     std::any_of(transitions_.begin(), transitions_.end(),
                                 [&rs](const Transition& t) {
                                   return t.rule == rs.rule.name &&
                                          t.to == AlertState::kResolved;
                                 })
                         ? AlertState::kResolved
                         : AlertState::kInactive,
                     now);
        } else {
          rs.peak_value = std::max(rs.peak_value, value);
          if (now - rs.pending_since >= rs.rule.for_duration)
            transition(rs, AlertState::kFiring, now);
        }
        break;
      case AlertState::kFiring:
        if (!active) {
          transition(rs, AlertState::kResolved, now);
        } else {
          rs.peak_value = std::max(rs.peak_value, value);
        }
        break;
    }
  }
}

AlertState AlertEngine::state(const std::string& rule) const {
  const auto it = rule_index_.find(rule);
  if (it == rule_index_.end())
    throw std::invalid_argument("AlertEngine: unknown rule \"" + rule + "\"");
  return rules_[it->second].state;
}

std::vector<std::string> AlertEngine::active() const {
  std::vector<std::string> names;
  for (const RuleState& rs : rules_)
    if (rs.state == AlertState::kPending || rs.state == AlertState::kFiring)
      names.push_back(rs.rule.name);
  return names;
}

std::vector<Incident> AlertEngine::incidents() const {
  // Replay the transition history per rule: pending opens a candidate,
  // firing commits the episode, resolved closes it. A pending that never
  // fires is not an incident.
  std::map<std::string, Incident> open;
  std::vector<Incident> out;
  for (const Transition& t : transitions_) {
    const std::size_t index = rule_index_.at(t.rule);
    const AlertRule& rule = rules_[index].rule;
    switch (t.to) {
      case AlertState::kPending: {
        Incident incident;
        incident.rule = t.rule;
        incident.summary = rule.summary;
        incident.labels = rule.labels;
        incident.pending_at = t.at;
        incident.peak_value = t.value;
        open[t.rule] = std::move(incident);
        break;
      }
      case AlertState::kFiring: {
        auto it = open.find(t.rule);
        if (it == open.end()) {
          Incident incident;
          incident.rule = t.rule;
          incident.summary = rule.summary;
          incident.labels = rule.labels;
          incident.peak_value = t.value;
          it = open.emplace(t.rule, std::move(incident)).first;
        }
        it->second.firing_at = t.at;
        it->second.peak_value = std::max(it->second.peak_value, t.value);
        break;
      }
      case AlertState::kResolved: {
        const auto it = open.find(t.rule);
        if (it == open.end()) break;
        it->second.resolved_at = t.at;
        it->second.peak_value =
            std::max(it->second.peak_value, rules_[index].peak_value);
        out.push_back(std::move(it->second));
        open.erase(it);
        break;
      }
      case AlertState::kInactive:
        open.erase(t.rule);  // pending released before firing: no incident
        break;
    }
  }
  // Episodes still firing (or pending-to-fire) at the last evaluation.
  for (auto& [name, incident] : open) {
    if (incident.firing_at <= 0 && incident.pending_at >= 0 &&
        state(name) != AlertState::kFiring)
      continue;  // still pending: not an incident yet
    incident.peak_value = std::max(
        incident.peak_value, rules_[rule_index_.at(name)].peak_value);
    out.push_back(incident);
  }
  std::sort(out.begin(), out.end(), [](const Incident& a, const Incident& b) {
    return a.firing_at != b.firing_at ? a.firing_at < b.firing_at
                                      : a.rule < b.rule;
  });
  return out;
}

void AlertEngine::bind_alerts(MetricsRegistry& registry) {
  registry.add_collector([this](MetricsRegistry::Collect& out) {
    std::uint64_t firing = 0;
    std::uint64_t resolved = 0;
    for (const Transition& t : transitions_) {
      if (t.to == AlertState::kFiring) ++firing;
      if (t.to == AlertState::kResolved) ++resolved;
    }
    out.counter("ALERTS_firing_total", firing);
    out.counter("ALERTS_resolved_total", resolved);
    out.gauge("alerts_unbound_rules", static_cast<double>(unbound_rules_));
    for (const RuleState& rs : rules_) {
      if (rs.state != AlertState::kPending && rs.state != AlertState::kFiring)
        continue;
      out.gauge("ALERTS{alertname=\"" + rs.rule.name + "\",alertstate=\"" +
                    alert_state_name(rs.state) + "\"}",
                1.0);
    }
  });
}

}  // namespace qkd::obs::health
