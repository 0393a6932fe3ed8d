// Sim-time health engine: declarative alert rules over MetricsRegistry
// samples.
//
// The paper's operational premise is that a deployed QKD network is run by
// alarms — a QBER spike IS the eavesdropping detector, and a drained key
// pool is what starves IKE rekeying — so the metrics layer needs a watcher
// that turns signal into operable state. An AlertEngine holds a set of
// AlertRules and is ticked by evaluate(now): each tick takes one registry
// snapshot, feeds every rule's condition, and drives a per-rule lifecycle
// state machine
//
//   inactive -> pending -> firing -> resolved -> (pending | firing) ...
//
// where `for_duration` is the pending debounce (a condition must hold that
// long before the alert fires — one noisy sample never pages) and
// `resolved` is sticky until the condition trips again. Every state change
// is recorded as a Transition (the full history tests assert on), surfaced
// through an observer callback (the sim layer bridges these onto the
// TimelineRecorder as annotations), exported as Prometheus-style ALERTS
// samples via bind_alerts(), and assembled into firing episodes by
// incidents() for the JSON incident report (src/obs/health/report.hpp).
//
// Evaluation is deliberately pull-based and clock-agnostic: the engine
// never schedules itself. Drive it from an EventScheduler periodic event
// (ScenarioRunner::attach_alerts does exactly that) and evaluation is
// deterministic and scenario-scriptable; drive it from a wall-clock
// monitoring thread in a live deployment and nothing changes.
//
// Conditions (the rule grammar; see DESIGN.md "Health & alerting"):
//   Threshold    instantaneous comparison against a counter/gauge value or
//                a histogram's count.
//   RateOfChange per-second delta over a trailing window (counters: surge
//                detection; needs at least two ticks inside the window).
//   Absence      the metric is missing from the snapshot, or — for
//                counters — has not advanced within `stale_after` (the
//                watchdog flavor: "distillation stopped").
//   QuantileAbove a live histogram quantile (any q, not just the exported
//                p50/p99) compared against a bound.
//   SloBurnRate  multi-window burn rate over a good/total counter pair:
//                burn = (bad fraction over window) / error budget, firing
//                only when BOTH the short and the long window burn faster
//                than `burn_threshold` (the SRE multi-window pattern:
//                short window for reaction time, long window so a blip
//                that already ended cannot page).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/common/sim_clock.hpp"
#include "src/obs/metrics.hpp"

namespace qkd::obs::health {

// ---- Condition grammar -----------------------------------------------------

enum class Comparison { kGreater, kLess };

/// Instantaneous bound on a sample's value (counter/gauge value; a
/// histogram's sample reports its count).
struct Threshold {
  std::string metric;
  Comparison op = Comparison::kGreater;
  double bound = 0.0;
};

/// Per-second change of the metric over the trailing `window`, compared
/// against `bound_per_s`. Needs history: the engine keeps (time, value)
/// samples per referenced metric across evaluate() ticks; until two ticks
/// fall inside the window the condition reads false.
struct RateOfChange {
  std::string metric;
  qkd::SimTime window = 0;
  Comparison op = Comparison::kGreater;
  double bound_per_s = 0.0;
};

/// Staleness watchdog: true when the metric is absent from the snapshot
/// entirely, or when its value has not changed for `stale_after` (tracked
/// from evaluation history — the heartbeat flavor for counters).
struct Absence {
  std::string metric;
  qkd::SimTime stale_after = 0;
};

/// A live histogram quantile (conservative upper-bucket-bound convention,
/// same as Histogram::quantile) compared against `bound`. The metric must
/// be a registry-owned histogram; collector-reported values cannot carry
/// arbitrary quantiles.
struct QuantileAbove {
  std::string metric;
  double quantile = 0.99;
  double bound = 0.0;
};

/// Multi-window SLO burn rate over cumulative good/total counters.
/// bad = total_delta - good_delta over the window;
/// burn = (bad / total_delta) / (1 - objective). Burn 1.0 consumes the
/// error budget exactly at the sustainable rate; the condition is true
/// when BOTH windows burn past `burn_threshold`.
struct SloBurnRate {
  std::string good_metric;
  std::string total_metric;
  double objective = 0.99;        // target good/total ratio
  qkd::SimTime short_window = 0;  // reaction-time window
  qkd::SimTime long_window = 0;   // anti-flap window (>= short_window)
  double burn_threshold = 1.0;
};

using AlertCondition =
    std::variant<Threshold, RateOfChange, Absence, QuantileAbove, SloBurnRate>;

/// Human-readable condition tag ("threshold", "rate_of_change", ...).
const char* condition_kind(const AlertCondition& condition);

// ---- Rules and lifecycle ---------------------------------------------------

struct AlertRule {
  std::string name;     // unique within the engine
  std::string summary;  // one line for reports ("QBER alarm on link 6")
  AlertCondition condition;
  /// Debounce: the condition must hold this long before pending becomes
  /// firing. Zero fires on the first true evaluation.
  qkd::SimTime for_duration = 0;
  /// Free-form labels carried into ALERTS samples and incident reports
  /// (severity, link/pair ids, ...).
  std::map<std::string, std::string> labels;
};

enum class AlertState { kInactive, kPending, kFiring, kResolved };

const char* alert_state_name(AlertState state);

/// One lifecycle state change, recorded at the evaluation that caused it.
struct Transition {
  qkd::SimTime at = 0;
  std::string rule;
  AlertState from = AlertState::kInactive;
  AlertState to = AlertState::kInactive;
  /// The condition's observed value at the transition (burn rules report
  /// the short-window burn; absence reports seconds since last change).
  double value = 0.0;
};

/// One firing episode assembled from the transition history: the unit the
/// incident report and the expect_alert assertions consume.
struct Incident {
  std::string rule;
  std::string summary;
  std::map<std::string, std::string> labels;
  qkd::SimTime pending_at = -1;  // -1 when the rule fired without debounce
  qkd::SimTime firing_at = 0;
  qkd::SimTime resolved_at = -1;  // -1 while still firing
  double peak_value = 0.0;        // extreme observed value while pending/firing
  bool resolved() const { return resolved_at >= 0; }
};

// ---- The engine ------------------------------------------------------------

class AlertEngine {
 public:
  struct Stats {
    std::uint64_t evaluations = 0;
    std::uint64_t conditions_evaluated = 0;
    std::uint64_t transitions = 0;
  };

  /// The registry is read at every evaluate(); it must outlive the engine.
  explicit AlertEngine(const MetricsRegistry& registry);

  /// Adds a rule; throws std::invalid_argument on a duplicate name, an
  /// empty name, or a SloBurnRate whose long window is shorter than its
  /// short window.
  void add_rule(AlertRule rule);
  std::size_t rule_count() const { return rules_.size(); }
  bool has_rule(const std::string& rule) const {
    return rule_index_.count(rule) != 0;
  }

  /// One evaluation tick at sim time `now` (monotonically non-decreasing
  /// across calls; going backwards throws). Takes one registry snapshot,
  /// updates metric history, advances every rule's state machine, and
  /// records/announces transitions. A snapshot that reports a name twice
  /// throws std::logic_error naming it.
  void evaluate(qkd::SimTime now);

  /// Current lifecycle state of a rule (throws on unknown name).
  AlertState state(const std::string& rule) const;
  /// Rules currently pending or firing.
  std::vector<std::string> active() const;

  /// Every transition since construction, in evaluation order.
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// Firing episodes assembled from the history, in firing order. An
  /// episode still firing at the last evaluation has resolved_at == -1.
  std::vector<Incident> incidents() const;

  /// Invoked synchronously for every transition (after it is recorded).
  /// The sim bridge uses this to annotate the TimelineRecorder.
  using TransitionObserver = std::function<void(const Transition&)>;
  void set_transition_observer(TransitionObserver observer) {
    observer_ = std::move(observer);
  }

  /// Registers a collector on `registry` exposing Prometheus-style ALERTS
  /// samples for every rule: a gauge
  ///   ALERTS{alertname="<rule>",alertstate="<pending|firing>"} = 1
  /// per active alert, plus ALERTS_firing_total / ALERTS_resolved_total
  /// counters and the alerts_unbound_rules gauge. Usually the same
  /// registry the rules read; any registry works. The engine must outlive
  /// the binding.
  void bind_alerts(MetricsRegistry& registry);

  /// Rules whose metric was absent from the last evaluation's snapshot
  /// (any condition but Absence, whose job that is): such a rule can never
  /// fire, so a nonzero count is a misnamed metric or a missing binding.
  std::size_t unbound_rules() const { return unbound_rules_; }

  const Stats& stats() const { return stats_; }
  qkd::SimTime last_evaluated() const { return last_evaluated_; }

 private:
  struct RuleState {
    AlertRule rule;
    AlertState state = AlertState::kInactive;
    qkd::SimTime pending_since = -1;
    double last_value = 0.0;
    double peak_value = 0.0;
  };

  struct HistoryPoint {
    qkd::SimTime at = 0;
    double value = 0.0;
  };
  struct MetricHistory {
    std::deque<HistoryPoint> points;
    qkd::SimTime last_changed = -1;
    bool present = false;  // seen in any snapshot yet
    qkd::SimTime max_window = 0;
  };

  /// (condition true?, observed value) against the current snapshot.
  std::pair<bool, double> evaluate_condition(const AlertCondition& condition,
                                             qkd::SimTime now) const;
  /// Metric value over the trailing window: value(now) - value(at or
  /// before now - window); nullopt until the window is covered.
  std::optional<double> window_delta(const std::string& metric,
                                     qkd::SimTime window,
                                     qkd::SimTime now) const;
  double burn_rate(const SloBurnRate& slo, qkd::SimTime window,
                   qkd::SimTime now) const;
  /// Every metric the condition reads is in the current snapshot.
  bool bound(const AlertCondition& condition) const;
  void track(const std::string& metric, qkd::SimTime window);
  void transition(RuleState& rs, AlertState to, qkd::SimTime now);

  const MetricsRegistry& registry_;
  std::vector<RuleState> rules_;
  std::map<std::string, std::size_t> rule_index_;
  std::map<std::string, MetricHistory> history_;
  std::map<std::string, double> snapshot_;  // name -> value, last evaluate
  std::map<std::string, double> snapshot_p99_;  // histograms only
  std::vector<Transition> transitions_;
  TransitionObserver observer_;
  Stats stats_;
  std::size_t unbound_rules_ = 0;
  qkd::SimTime last_evaluated_ = -1;
};

}  // namespace qkd::obs::health
