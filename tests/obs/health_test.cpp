// The health engine: condition grammar over live registry samples, the
// pending -> firing -> resolved lifecycle with for_duration debounce,
// incident assembly, the ALERTS exporter, the AlertExpect assertion API,
// and the JSON incident report.
#include "src/obs/health/alert.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/health/expect.hpp"
#include "src/obs/health/report.hpp"
#include "src/obs/health/rules.hpp"
#include "src/obs/metrics.hpp"

namespace qkd::obs::health {
namespace {

AlertRule threshold_rule(const std::string& name, const std::string& metric,
                         double bound, qkd::SimTime for_duration = 0,
                         Comparison op = Comparison::kGreater) {
  AlertRule rule;
  rule.name = name;
  rule.summary = name + " summary";
  rule.condition = Threshold{metric, op, bound};
  rule.for_duration = for_duration;
  return rule;
}

TEST(AlertEngine, ThresholdFiresImmediatelyWithoutDebounce) {
  MetricsRegistry registry;
  Gauge& depth = registry.gauge("queue_depth");
  AlertEngine engine(registry);
  engine.add_rule(threshold_rule("deep_queue", "queue_depth", 10.0));

  engine.evaluate(qkd::kSecond);
  EXPECT_EQ(engine.state("deep_queue"), AlertState::kInactive);

  depth.set(11);
  engine.evaluate(2 * qkd::kSecond);
  EXPECT_EQ(engine.state("deep_queue"), AlertState::kFiring)
      << "for_duration 0 fires on the first true evaluation";

  depth.set(3);
  engine.evaluate(3 * qkd::kSecond);
  EXPECT_EQ(engine.state("deep_queue"), AlertState::kResolved);
}

TEST(AlertEngine, ANameReportedTwiceThrowsNamingIt) {
  // Two layers bound under one prefix report the same name; the engine
  // keys samples by name, so it refuses to pick one of them silently.
  MetricsRegistry registry;
  registry.gauge("mesh_link6_qber_percent").set(2);
  registry.add_collector([](MetricsRegistry::Collect& out) {
    out.gauge("mesh_link6_qber_percent", 25.0);
  });
  AlertEngine engine(registry);
  engine.add_rule(
      threshold_rule("qber_high", "mesh_link6_qber_percent", 11.0));
  try {
    engine.evaluate(qkd::kSecond);
    FAIL() << "a duplicated name must not be evaluated silently";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("mesh_link6_qber_percent"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(engine.transitions().empty());
}

TEST(AlertEngine, ForDurationDebouncesThePendingPhase) {
  MetricsRegistry registry;
  Gauge& qber = registry.gauge("qber");
  AlertEngine engine(registry);
  engine.add_rule(
      threshold_rule("qber_high", "qber", 8.0, /*for_duration=*/5 * qkd::kSecond));

  qber.set(25);
  engine.evaluate(qkd::kSecond);
  EXPECT_EQ(engine.state("qber_high"), AlertState::kPending);
  engine.evaluate(3 * qkd::kSecond);
  EXPECT_EQ(engine.state("qber_high"), AlertState::kPending)
      << "condition held 2s of the required 5s";
  engine.evaluate(6 * qkd::kSecond);
  EXPECT_EQ(engine.state("qber_high"), AlertState::kFiring)
      << "held for the full debounce";

  // The full transition history is recorded in order.
  ASSERT_EQ(engine.transitions().size(), 2u);
  EXPECT_EQ(engine.transitions()[0].to, AlertState::kPending);
  EXPECT_EQ(engine.transitions()[1].to, AlertState::kFiring);
}

TEST(AlertEngine, PendingReleasedBeforeDebounceIsNoIncident) {
  MetricsRegistry registry;
  Gauge& value = registry.gauge("blip");
  AlertEngine engine(registry);
  engine.add_rule(threshold_rule("blippy", "blip", 1.0, 10 * qkd::kSecond));

  value.set(5);
  engine.evaluate(qkd::kSecond);
  EXPECT_EQ(engine.state("blippy"), AlertState::kPending);
  value.set(0);
  engine.evaluate(2 * qkd::kSecond);
  EXPECT_EQ(engine.state("blippy"), AlertState::kInactive)
      << "a blip shorter than the debounce never pages";
  EXPECT_TRUE(engine.incidents().empty());
}

TEST(AlertEngine, ResolvedIsStickyAndRetripsThroughPending) {
  MetricsRegistry registry;
  Gauge& value = registry.gauge("v");
  AlertEngine engine(registry);
  engine.add_rule(threshold_rule("flappy", "v", 1.0, 2 * qkd::kSecond));

  value.set(5);
  engine.evaluate(qkd::kSecond);
  engine.evaluate(3 * qkd::kSecond);  // fires
  value.set(0);
  engine.evaluate(4 * qkd::kSecond);  // resolves
  EXPECT_EQ(engine.state("flappy"), AlertState::kResolved);
  engine.evaluate(5 * qkd::kSecond);
  EXPECT_EQ(engine.state("flappy"), AlertState::kResolved) << "sticky";

  value.set(5);
  engine.evaluate(6 * qkd::kSecond);
  EXPECT_EQ(engine.state("flappy"), AlertState::kPending)
      << "a re-trip starts a new episode from resolved";
  value.set(0);
  engine.evaluate(7 * qkd::kSecond);
  EXPECT_EQ(engine.state("flappy"), AlertState::kResolved)
      << "a released re-trip pending returns to resolved, not inactive";
}

TEST(AlertEngine, RateOfChangeDetectsACounterSurge) {
  MetricsRegistry registry;
  Counter& shed = registry.counter("shed_total");
  AlertEngine engine(registry);
  AlertRule rule;
  rule.name = "shed_surge";
  rule.condition = RateOfChange{"shed_total", 10 * qkd::kSecond,
                                Comparison::kGreater, 2.0};
  engine.add_rule(std::move(rule));

  // Slow drip: 1/s over the window — under the 2/s bound.
  for (int t = 1; t <= 12; ++t) {
    shed.add(1);
    engine.evaluate(t * qkd::kSecond);
  }
  EXPECT_EQ(engine.state("shed_surge"), AlertState::kInactive);

  // Surge: 50 in one second — way past 2/s over the trailing window.
  shed.add(50);
  engine.evaluate(13 * qkd::kSecond);
  EXPECT_EQ(engine.state("shed_surge"), AlertState::kFiring);
}

TEST(AlertEngine, RateOfChangeNeedsAFullWindowOfHistory) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c");
  AlertEngine engine(registry);
  AlertRule rule;
  rule.name = "surge";
  rule.condition =
      RateOfChange{"c", 10 * qkd::kSecond, Comparison::kGreater, 0.5};
  engine.add_rule(std::move(rule));

  c.add(100);
  engine.evaluate(qkd::kSecond);
  c.add(100);
  engine.evaluate(2 * qkd::kSecond);
  EXPECT_EQ(engine.state("surge"), AlertState::kInactive)
      << "a young engine must not report a rate off a partial window";
}

TEST(AlertEngine, AbsenceFiresOnMissingMetricAndOnStaleCounter) {
  MetricsRegistry registry;
  AlertEngine engine(registry);
  AlertRule missing;
  missing.name = "never_seen";
  missing.condition = Absence{"no_such_metric", 5 * qkd::kSecond};
  engine.add_rule(std::move(missing));
  AlertRule stale;
  stale.name = "distill_stalled";
  stale.condition = Absence{"distilled", 5 * qkd::kSecond};
  engine.add_rule(std::move(stale));

  Counter& distilled = registry.counter("distilled");
  distilled.add(1);
  engine.evaluate(qkd::kSecond);
  EXPECT_EQ(engine.state("never_seen"), AlertState::kFiring)
      << "a metric absent from the snapshot is maximally stale";
  EXPECT_EQ(engine.state("distill_stalled"), AlertState::kInactive);

  // The counter keeps advancing: the watchdog stays quiet.
  distilled.add(1);
  engine.evaluate(4 * qkd::kSecond);
  distilled.add(1);
  engine.evaluate(8 * qkd::kSecond);
  EXPECT_EQ(engine.state("distill_stalled"), AlertState::kInactive);

  // It stops: stale after 5 idle seconds.
  engine.evaluate(12 * qkd::kSecond);
  EXPECT_EQ(engine.state("distill_stalled"), AlertState::kInactive)
      << "4s idle: not yet";
  engine.evaluate(14 * qkd::kSecond);
  EXPECT_EQ(engine.state("distill_stalled"), AlertState::kFiring)
      << "6s idle: the heartbeat flatlined";
}

TEST(AlertEngine, QuantileAboveReadsTheLiveHistogram) {
  MetricsRegistry registry;
  Histogram& latency = registry.histogram("grant_latency");
  AlertEngine engine(registry);
  AlertRule rule;
  rule.name = "p95_slow";
  rule.condition = QuantileAbove{"grant_latency", 0.95, 1000.0};
  engine.add_rule(std::move(rule));

  engine.evaluate(qkd::kSecond);
  EXPECT_EQ(engine.state("p95_slow"), AlertState::kInactive)
      << "an empty histogram never alarms";

  for (int i = 0; i < 100; ++i) latency.record(10);
  engine.evaluate(2 * qkd::kSecond);
  EXPECT_EQ(engine.state("p95_slow"), AlertState::kInactive);

  for (int i = 0; i < 50; ++i) latency.record(1 << 14);
  engine.evaluate(3 * qkd::kSecond);
  EXPECT_EQ(engine.state("p95_slow"), AlertState::kFiring)
      << "a third of samples at ~16k drags p95 over the bound";
}

TEST(AlertEngine, SloBurnRateNeedsBothWindowsBurning) {
  MetricsRegistry registry;
  Counter& good = registry.counter("good");
  Counter& total = registry.counter("total");
  AlertEngine engine(registry);
  AlertRule rule;
  rule.name = "slo_burn";
  SloBurnRate slo;
  slo.good_metric = "good";
  slo.total_metric = "total";
  slo.objective = 0.9;  // 10% error budget
  slo.short_window = 5 * qkd::kSecond;
  slo.long_window = 30 * qkd::kSecond;
  slo.burn_threshold = 2.0;
  rule.condition = slo;
  engine.add_rule(std::move(rule));

  // 35 healthy seconds: everything within SLO. Neither window burns.
  for (int t = 1; t <= 35; ++t) {
    good.add(10);
    total.add(10);
    engine.evaluate(t * qkd::kSecond);
  }
  EXPECT_EQ(engine.state("slo_burn"), AlertState::kInactive);

  // A short total outage: the 5s window burns instantly (bad fraction
  // 1.0 / budget 0.1 = burn 10), but the 30s window still averages the
  // healthy stretch in — no page until the damage sustains.
  for (int t = 36; t <= 39; ++t) {
    total.add(10);  // all bad
    engine.evaluate(t * qkd::kSecond);
  }
  EXPECT_EQ(engine.state("slo_burn"), AlertState::kInactive)
      << "short-window burn alone must not fire";

  // Sustained: by t=48 the 30s window is ~40% bad -> burn 4 > 2. Fire.
  for (int t = 40; t <= 48; ++t) {
    total.add(10);
    engine.evaluate(t * qkd::kSecond);
  }
  EXPECT_EQ(engine.state("slo_burn"), AlertState::kFiring);
}

TEST(AlertEngine, ValidationRejectsBadRulesAndBackwardsTime) {
  MetricsRegistry registry;
  AlertEngine engine(registry);
  EXPECT_THROW(engine.add_rule(threshold_rule("", "m", 1.0)),
               std::invalid_argument);
  engine.add_rule(threshold_rule("dup", "m", 1.0));
  EXPECT_THROW(engine.add_rule(threshold_rule("dup", "m", 2.0)),
               std::invalid_argument);

  AlertRule swapped;
  swapped.name = "swapped_windows";
  SloBurnRate slo;
  slo.good_metric = "g";
  slo.total_metric = "t";
  slo.short_window = 30 * qkd::kSecond;
  slo.long_window = 5 * qkd::kSecond;  // long < short
  swapped.condition = slo;
  EXPECT_THROW(engine.add_rule(std::move(swapped)), std::invalid_argument);

  engine.evaluate(5 * qkd::kSecond);
  EXPECT_THROW(engine.evaluate(4 * qkd::kSecond), std::invalid_argument);
  EXPECT_THROW(engine.state("no_such_rule"), std::invalid_argument);
}

TEST(AlertEngine, IncidentsAssembleEpisodesFromTransitions) {
  MetricsRegistry registry;
  Gauge& value = registry.gauge("v");
  AlertEngine engine(registry);
  engine.add_rule(threshold_rule("ep", "v", 1.0, 2 * qkd::kSecond));

  value.set(9);
  engine.evaluate(10 * qkd::kSecond);  // pending
  engine.evaluate(12 * qkd::kSecond);  // firing
  value.set(0);
  engine.evaluate(20 * qkd::kSecond);  // resolved
  value.set(7);
  engine.evaluate(30 * qkd::kSecond);  // pending again
  engine.evaluate(32 * qkd::kSecond);  // firing, never resolves

  const auto incidents = engine.incidents();
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_EQ(incidents[0].pending_at, 10 * qkd::kSecond);
  EXPECT_EQ(incidents[0].firing_at, 12 * qkd::kSecond);
  EXPECT_EQ(incidents[0].resolved_at, 20 * qkd::kSecond);
  EXPECT_TRUE(incidents[0].resolved());
  EXPECT_DOUBLE_EQ(incidents[0].peak_value, 9.0);
  EXPECT_EQ(incidents[1].firing_at, 32 * qkd::kSecond);
  EXPECT_FALSE(incidents[1].resolved());
  EXPECT_DOUBLE_EQ(incidents[1].peak_value, 7.0);
}

TEST(AlertEngine, TransitionObserverSeesEveryStateChange) {
  MetricsRegistry registry;
  Gauge& value = registry.gauge("v");
  AlertEngine engine(registry);
  engine.add_rule(threshold_rule("obs", "v", 1.0));
  std::vector<std::string> seen;
  engine.set_transition_observer([&seen](const Transition& t) {
    seen.push_back(t.rule + ":" + alert_state_name(t.to));
  });

  value.set(5);
  engine.evaluate(qkd::kSecond);
  value.set(0);
  engine.evaluate(2 * qkd::kSecond);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "obs:firing");
  EXPECT_EQ(seen[1], "obs:resolved");
}

/// The value of `name` in a registry snapshot; NaN when it is absent.
double sample_value(const MetricsRegistry& registry, const std::string& name) {
  for (const MetricSample& sample : registry.snapshot())
    if (sample.name == name) return sample.value;
  return std::nan("");
}

TEST(AlertEngine, RulesOverMissingMetricsAreCountedUnbound) {
  // A rule over a metric the registry never emits can never fire, so it
  // must not stay silent: the engine counts it in alerts_unbound_rules at
  // every evaluation, one per rule, for every condition kind that reads a
  // value (Absence watches for a missing metric by design).
  MetricsRegistry registry;
  registry.gauge("v").set(5);
  registry.histogram("h").record(3);
  AlertEngine engine(registry);
  engine.add_rule(threshold_rule("bound", "v", 1.0));
  engine.add_rule(threshold_rule("typo", "v_typo", 1.0));
  AlertRule rate;
  rate.name = "rate";
  rate.condition =
      RateOfChange{"r_typo", qkd::kSecond, Comparison::kGreater, 1.0};
  engine.add_rule(rate);
  AlertRule quantile;
  quantile.name = "quantile";
  quantile.condition = QuantileAbove{"h", 0.99, 10.0};
  engine.add_rule(quantile);
  engine.add_rule(rules::grant_slo_burn("v", "total_typo", "slo"));
  engine.add_rule(rules::distillation_stalled("absent"));
  engine.bind_alerts(registry);

  engine.evaluate(qkd::kSecond);
  EXPECT_DOUBLE_EQ(sample_value(registry, "alerts_unbound_rules"), 3.0);

  // Once the metrics appear, the rules bind.
  registry.gauge("v_typo").set(0);
  registry.counter("r_typo").add(1);
  registry.counter("total_typo").add(1);
  engine.evaluate(2 * qkd::kSecond);
  EXPECT_DOUBLE_EQ(sample_value(registry, "alerts_unbound_rules"), 0.0);
}

TEST(AlertEngine, BindAlertsExportsPrometheusStyleSamples) {
  MetricsRegistry registry;
  Gauge& value = registry.gauge("v");
  AlertEngine engine(registry);
  engine.add_rule(threshold_rule("exported", "v", 1.0));
  engine.bind_alerts(registry);

  value.set(5);
  engine.evaluate(qkd::kSecond);
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("ALERTS{alertname=\"exported\",alertstate=\"firing\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ALERTS_firing_total 1"), std::string::npos) << text;

  value.set(0);
  engine.evaluate(2 * qkd::kSecond);
  const std::string after = registry.to_prometheus();
  EXPECT_EQ(after.find("alertstate=\"firing\""), std::string::npos)
      << "resolved alerts no longer export an active sample";
  EXPECT_NE(after.find("ALERTS_resolved_total 1"), std::string::npos);
}

TEST(AlertEngine, StatsCountEvaluationsConditionsAndTransitions) {
  MetricsRegistry registry;
  Gauge& value = registry.gauge("v");
  value.set(5);
  AlertEngine engine(registry);
  engine.add_rule(threshold_rule("a", "v", 1.0));
  engine.add_rule(threshold_rule("b", "v", 10.0));
  engine.evaluate(qkd::kSecond);
  engine.evaluate(2 * qkd::kSecond);
  EXPECT_EQ(engine.stats().evaluations, 2u);
  EXPECT_EQ(engine.stats().conditions_evaluated, 4u);
  EXPECT_EQ(engine.stats().transitions, 1u);  // only "a" fired
  EXPECT_EQ(engine.last_evaluated(), 2 * qkd::kSecond);
  EXPECT_EQ(engine.active(), std::vector<std::string>{"a"});
}

// ---- AlertExpect -----------------------------------------------------------

TEST(AlertEngine, ExpectAlertPassesOnTheObservedLifecycle) {
  MetricsRegistry registry;
  Gauge& value = registry.gauge("v");
  AlertEngine engine(registry);
  engine.add_rule(threshold_rule("lifecycle", "v", 1.0, 2 * qkd::kSecond));
  engine.add_rule(threshold_rule("quiet", "v", 100.0));

  value.set(5);
  engine.evaluate(10 * qkd::kSecond);
  engine.evaluate(12 * qkd::kSecond);
  value.set(0);
  engine.evaluate(20 * qkd::kSecond);

  AlertExpect expect(engine);
  expect.expect_alert("lifecycle")
      .pending_by(10 * qkd::kSecond)
      .firing_between(11 * qkd::kSecond, 13 * qkd::kSecond)
      .resolved_by(20 * qkd::kSecond)
      .full_lifecycle()
      .state_now(AlertState::kResolved);
  expect.expect_alert("quiet").never_fires();
  EXPECT_TRUE(expect.ok()) << expect.report();
  EXPECT_EQ(expect.report(), "alerts ok");
}

TEST(AlertEngine, ExpectAlertReportsEveryViolationAtOnce) {
  MetricsRegistry registry;
  registry.gauge("v");
  AlertEngine engine(registry);
  engine.add_rule(threshold_rule("silent", "v", 100.0));
  engine.evaluate(qkd::kSecond);

  AlertExpect expect(engine);
  expect.expect_alert("silent").fired().resolved_by(5 * qkd::kSecond);
  expect.expect_alert("no_such_rule").fired();
  EXPECT_FALSE(expect.ok());
  const std::string report = expect.report();
  EXPECT_NE(report.find("never fired"), std::string::npos) << report;
  EXPECT_NE(report.find("never resolved"), std::string::npos) << report;
  EXPECT_NE(report.find("no such rule"), std::string::npos) << report;
}

// ---- Report and rule pack --------------------------------------------------

TEST(AlertEngine, IncidentReportJsonCarriesEpisodesAndTransitions) {
  MetricsRegistry registry;
  Gauge& value = registry.gauge("v");
  AlertEngine engine(registry);
  AlertRule rule = threshold_rule("json_ep", "v", 1.0);
  rule.labels["severity"] = "critical";
  engine.add_rule(std::move(rule));

  value.set(5);
  engine.evaluate(qkd::kSecond);
  value.set(0);
  engine.evaluate(2 * qkd::kSecond);

  const std::string json = incident_report_json(engine);
  EXPECT_NE(json.find("\"rule\":\"json_ep\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\":\"critical\""), std::string::npos);
  EXPECT_NE(json.find("\"pending_s\":null"), std::string::npos)
      << "no debounce: pending_s is null";
  EXPECT_NE(json.find("\"firing_s\":1"), std::string::npos);
  EXPECT_NE(json.find("\"resolved_s\":2"), std::string::npos);
  EXPECT_NE(json.find("\"from\":\"inactive\",\"to\":\"firing\""),
            std::string::npos);
  EXPECT_NE(json.find("\"evaluations\":2"), std::string::npos);
}

TEST(AlertEngine, RulePackFactoriesNameAndLabelTheirRules) {
  const AlertRule qber = rules::qber_spike("mesh_link6_qber_percent", "6");
  EXPECT_EQ(qber.name, "qber_spike:6");
  EXPECT_STREQ(condition_kind(qber.condition), "threshold");
  EXPECT_EQ(qber.labels.at("severity"), "critical");

  const AlertRule slo =
      rules::grant_slo_burn("good", "total", "interactive");
  EXPECT_EQ(slo.name, "grant_slo_burn:interactive");
  EXPECT_STREQ(condition_kind(slo.condition), "slo_burn_rate");

  EXPECT_STREQ(condition_kind(rules::pool_drought("p", "6->7").condition),
               "threshold");
  EXPECT_STREQ(condition_kind(rules::shed_surge("s", "bulk").condition),
               "rate_of_change");
  EXPECT_STREQ(condition_kind(rules::retransmission_storm("r").condition),
               "rate_of_change");
  EXPECT_STREQ(condition_kind(rules::distillation_stalled("t").condition),
               "absence");
}

}  // namespace
}  // namespace qkd::obs::health
