#include "src/obs/health/rules.hpp"

namespace qkd::obs::health::rules {

AlertRule qber_spike(const std::string& qber_metric, const std::string& link,
                     double qber_percent, qkd::SimTime for_duration) {
  AlertRule rule;
  rule.name = "qber_spike:" + link;
  rule.summary = "QBER alarm on link " + link + " (possible eavesdropper)";
  rule.condition = Threshold{qber_metric, Comparison::kGreater, qber_percent};
  rule.for_duration = for_duration;
  rule.labels = {{"severity", "critical"}, {"link", link}};
  return rule;
}

AlertRule pool_drought(const std::string& pool_metric, const std::string& pair,
                       double min_bits, qkd::SimTime for_duration) {
  AlertRule rule;
  rule.name = "pool_drought:" + pair;
  rule.summary = "key pool drought for pair " + pair;
  rule.condition = Threshold{pool_metric, Comparison::kLess, min_bits};
  rule.for_duration = for_duration;
  rule.labels = {{"severity", "warning"}, {"pair", pair}};
  return rule;
}

AlertRule grant_slo_burn(const std::string& good_metric,
                         const std::string& total_metric,
                         const std::string& qos, double objective,
                         qkd::SimTime short_window, qkd::SimTime long_window,
                         double burn_threshold) {
  AlertRule rule;
  rule.name = "grant_slo_burn:" + qos;
  rule.summary = "grant-latency SLO burning for class " + qos;
  SloBurnRate condition;
  condition.good_metric = good_metric;
  condition.total_metric = total_metric;
  condition.objective = objective;
  condition.short_window = short_window;
  condition.long_window = long_window;
  condition.burn_threshold = burn_threshold;
  rule.condition = condition;
  rule.labels = {{"severity", "page"}, {"qos", qos}};
  return rule;
}

AlertRule shed_surge(const std::string& shed_metric, const std::string& qos,
                     double per_second, qkd::SimTime window,
                     qkd::SimTime for_duration) {
  AlertRule rule;
  rule.name = "shed_surge:" + qos;
  rule.summary = "load-shed surge for class " + qos;
  rule.condition =
      RateOfChange{shed_metric, window, Comparison::kGreater, per_second};
  rule.for_duration = for_duration;
  rule.labels = {{"severity", "warning"}, {"qos", qos}};
  return rule;
}

AlertRule retransmission_storm(const std::string& retransmit_metric,
                               double per_second, qkd::SimTime window,
                               qkd::SimTime for_duration) {
  AlertRule rule;
  rule.name = "retransmission_storm";
  rule.summary = "wire retransmission storm on the key-protocol channel";
  rule.condition = RateOfChange{retransmit_metric, window, Comparison::kGreater,
                                per_second};
  rule.for_duration = for_duration;
  rule.labels = {{"severity", "warning"}, {"layer", "wire"}};
  return rule;
}

AlertRule pad_runway_draining(const std::string& pad_metric,
                              const std::string& link, double bits_per_second,
                              qkd::SimTime window, qkd::SimTime for_duration) {
  AlertRule rule;
  rule.name = "pad_runway_draining:" + link;
  rule.summary = "authentication pad runway draining on link " + link;
  rule.condition =
      RateOfChange{pad_metric, window, Comparison::kLess, -bits_per_second};
  rule.for_duration = for_duration;
  rule.labels = {{"severity", "warning"}, {"link", link}};
  return rule;
}

AlertRule distillation_stalled(const std::string& transports_metric,
                               qkd::SimTime stale_after) {
  AlertRule rule;
  rule.name = "distillation_stalled";
  rule.summary = "key distillation stopped advancing";
  rule.condition = Absence{transports_metric, stale_after};
  rule.labels = {{"severity", "critical"}, {"layer", "qkd"}};
  return rule;
}

}  // namespace qkd::obs::health::rules
