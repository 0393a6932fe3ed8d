#include "src/sim/expect.hpp"

#include <algorithm>
#include <cstdio>

namespace qkd::sim {

namespace {

std::string time_str(SimTime t) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1fs", sim_to_seconds(t));
  return buffer;
}

/// The sample name of one mesh link's field, as ScenarioRunner binds it.
std::string link_metric(network::LinkId link, const char* field) {
  return "mesh_link" + std::to_string(link) + "_" + field;
}

}  // namespace

const ScenarioRunner::KeyRequestOutcome* TimelineExpect::request(
    std::size_t index, const char* check) {
  const auto& outcomes = runner_.key_requests();
  if (index >= outcomes.size()) {
    fail(std::string(check) + ": request #" + std::to_string(index) +
         " does not exist (only " + std::to_string(outcomes.size()) +
         " KeyRequest outcomes recorded)");
    return nullptr;
  }
  return &outcomes[index];
}

TimelineExpect& TimelineExpect::link_down_by(network::LinkId link,
                                             SimTime deadline) {
  const std::string usable = link_metric(link, "usable");
  for (const TimelinePoint& point : points()) {
    if (point.t > deadline) break;
    if (point.find(usable) == 0.0) return *this;
  }
  fail("link_down_by: link " + std::to_string(link) +
       " never sampled unusable by " + time_str(deadline));
  return *this;
}

TimelineExpect& TimelineExpect::link_up_by(network::LinkId link, SimTime after,
                                           SimTime deadline) {
  const std::string usable = link_metric(link, "usable");
  for (const TimelinePoint& point : points()) {
    if (point.t <= after) continue;
    if (point.t > deadline) break;
    if (point.find(usable) == 1.0) return *this;
  }
  fail("link_up_by: link " + std::to_string(link) +
       " never sampled usable in (" + time_str(after) + ", " +
       time_str(deadline) + "]");
  return *this;
}

TimelineExpect& TimelineExpect::pool_at_least_by(network::LinkId link,
                                                 double bits,
                                                 SimTime deadline) {
  const std::string pool = link_metric(link, "pool_bits");
  double best = 0.0;
  for (const TimelinePoint& point : points()) {
    if (point.t > deadline) break;
    best = std::max(best, point.find(pool).value_or(0.0));
    if (best >= bits) return *this;
  }
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "pool_at_least_by: link %u peaked at %.0f bits by %s, wanted "
                ">= %.0f",
                link, best, time_str(deadline).c_str(), bits);
  fail(buffer);
  return *this;
}

TimelineExpect& TimelineExpect::request_served(std::size_t index) {
  if (const auto* outcome = request(index, "request_served");
      outcome != nullptr && !outcome->result.success)
    fail("request_served: request #" + std::to_string(index) + " (t=" +
         time_str(outcome->at) + ") failed");
  return *this;
}

TimelineExpect& TimelineExpect::request_failed(std::size_t index) {
  if (const auto* outcome = request(index, "request_failed");
      outcome != nullptr && outcome->result.success)
    fail("request_failed: request #" + std::to_string(index) + " (t=" +
         time_str(outcome->at) + ") was unexpectedly delivered");
  return *this;
}

TimelineExpect& TimelineExpect::request_avoids_link(std::size_t index,
                                                    network::LinkId link) {
  const auto* outcome = request(index, "request_avoids_link");
  if (outcome == nullptr) return *this;
  const auto& links = outcome->result.route.links;
  if (std::find(links.begin(), links.end(), link) != links.end())
    fail("request_avoids_link: request #" + std::to_string(index) +
         " was routed over link " + std::to_string(link));
  return *this;
}

TimelineExpect& TimelineExpect::request_avoids_node(std::size_t index,
                                                    network::NodeId node) {
  const auto* outcome = request(index, "request_avoids_node");
  if (outcome == nullptr) return *this;
  const auto& exposed = outcome->result.exposed_to;
  if (std::find(exposed.begin(), exposed.end(), node) != exposed.end())
    fail("request_avoids_node: request #" + std::to_string(index) +
         " exposed its key to node " + std::to_string(node));
  return *this;
}

TimelineExpect& TimelineExpect::requests_rerouted(std::size_t first,
                                                  std::size_t second) {
  const auto* a = request(first, "requests_rerouted");
  const auto* b = request(second, "requests_rerouted");
  if (a == nullptr || b == nullptr) return *this;
  if (a->result.route.links == b->result.route.links)
    fail("requests_rerouted: requests #" + std::to_string(first) + " and #" +
         std::to_string(second) + " took the same route");
  return *this;
}

TimelineExpect& TimelineExpect::request_clean(std::size_t index) {
  if (const auto* outcome = request(index, "request_clean");
      outcome != nullptr && outcome->result.compromised)
    fail("request_clean: request #" + std::to_string(index) +
         " traversed a compromised relay");
  return *this;
}

TimelineExpect& TimelineExpect::request_flagged_compromised(
    std::size_t index) {
  if (const auto* outcome = request(index, "request_flagged_compromised");
      outcome != nullptr && !outcome->result.compromised)
    fail("request_flagged_compromised: request #" + std::to_string(index) +
         " was not flagged compromised");
  return *this;
}

SimTime TimelineExpect::first_shed_time(const std::string& stem) const {
  const std::string shed = stem + "_shed";
  for (const TimelinePoint& point : points())
    if (point.find(shed).value_or(0.0) > 0.0) return point.t;
  return -1;
}

TimelineExpect& TimelineExpect::class_never_shed(const std::string& stem) {
  if (const SimTime t = first_shed_time(stem); t >= 0)
    fail("class_never_shed: class \"" + stem + "\" was shed by " +
         time_str(t));
  return *this;
}

TimelineExpect& TimelineExpect::class_shed_by(const std::string& stem,
                                              SimTime deadline) {
  const SimTime t = first_shed_time(stem);
  if (t < 0 || t > deadline)
    fail("class_shed_by: class \"" + stem + "\" not shed by " +
         time_str(deadline) +
         (t < 0 ? " (never shed)" : " (first shed at " + time_str(t) + ")"));
  return *this;
}

TimelineExpect& TimelineExpect::shed_order(const std::string& first,
                                           const std::string& second) {
  const SimTime t_first = first_shed_time(first);
  const SimTime t_second = first_shed_time(second);
  if (t_second >= 0 && (t_first < 0 || t_first > t_second))
    fail("shed_order: class \"" + second + "\" was shed at " +
         time_str(t_second) + " before class \"" + first + "\" (" +
         (t_first < 0 ? std::string("never shed") : time_str(t_first)) + ")");
  return *this;
}

TimelineExpect& TimelineExpect::class_queue_at_most_by(
    const std::string& stem, std::size_t depth, SimTime deadline) {
  const std::string name = stem + "_queue_depth";
  std::optional<double> last;
  SimTime last_t = -1;
  for (const TimelinePoint& point : points()) {
    if (point.t < deadline) continue;
    if (const auto queued = point.find(name)) {
      last = queued;
      last_t = point.t;
    }
  }
  if (!last.has_value()) {
    fail("class_queue_at_most_by: no \"" + name + "\" sample at or after " +
         time_str(deadline));
  } else if (*last > static_cast<double>(depth)) {
    fail("class_queue_at_most_by: class \"" + stem + "\" still queued " +
         std::to_string(static_cast<std::size_t>(*last)) + " at " +
         time_str(last_t) + ", wanted <= " + std::to_string(depth));
  }
  return *this;
}

double TimelineExpect::grant_rate(const std::string& stem,
                                  SimTime window_start,
                                  SimTime window_end) const {
  const std::string name = stem + "_granted";
  const TimelinePoint* first = nullptr;
  const TimelinePoint* last = nullptr;
  for (const TimelinePoint& point : points()) {
    if (point.t <= window_start || point.t > window_end) continue;
    if (!point.find(name).has_value()) continue;
    if (first == nullptr) first = &point;
    last = &point;
  }
  if (first == nullptr || first == last) return -1.0;
  const double granted = *last->find(name) - *first->find(name);
  return granted / sim_to_seconds(last->t - first->t);
}

TimelineExpect& TimelineExpect::grant_rate_recovers(const std::string& stem,
                                                    SimTime baseline_end,
                                                    SimTime recovery_start,
                                                    double factor) {
  const SimTime end = points().empty() ? recovery_start : points().back().t;
  const double before = grant_rate(stem, 0, baseline_end);
  const double after = grant_rate(stem, recovery_start, end);
  char buffer[200];
  if (before < 0.0 || after < 0.0) {
    std::snprintf(buffer, sizeof(buffer),
                  "grant_rate_recovers: class \"%s\" lacks two samples in the "
                  "%s window",
                  stem.c_str(), before < 0.0 ? "baseline" : "recovery");
    fail(buffer);
  } else if (after < factor * before) {
    std::snprintf(buffer, sizeof(buffer),
                  "grant_rate_recovers: class \"%s\" recovered to %.2f "
                  "grants/s after %s, wanted >= %.2f (%.0f%% of the %.2f "
                  "baseline)",
                  stem.c_str(), after, time_str(recovery_start).c_str(),
                  factor * before, factor * 100.0, before);
    fail(buffer);
  }
  return *this;
}

TimelineExpect& TimelineExpect::noted(const std::string& substring) {
  for (const TimelineNote& note : runner_.recorder().notes())
    if (note.text.find(substring) != std::string::npos) return *this;
  fail("noted: no timeline note contains \"" + substring + "\"");
  return *this;
}

std::string TimelineExpect::report() const {
  if (failures_.empty()) return "timeline ok";
  std::string out = "timeline expectations violated:";
  for (const std::string& failure : failures_) out += "\n  - " + failure;
  return out;
}

}  // namespace qkd::sim
