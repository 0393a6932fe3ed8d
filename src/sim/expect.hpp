// Golden timeline assertions for scenario runs.
//
// The corpus under tests/scenarios/ asserts the same handful of shapes
// again and again: an alarm (link unusable) raised by T+x, a reroute that
// avoids the cut link, load shed strictly bulk -> interactive with
// realtime untouched, grant rate recovered to its pre-event level by T+y.
// TimelineExpect packages that vocabulary as fluent checks over a finished
// ScenarioRunner: every check appends a human-readable failure instead of
// aborting, so one assertion block reports every violated expectation of a
// run at once.
//
//   TimelineExpect expect(runner);
//   expect.link_down_by(5, 11 * kSecond)
//         .request_served(0)
//         .request_avoids_link(0, 5)
//         .class_never_shed("kms_realtime")
//         .shed_order("kms_bulk", "kms_interactive");
//   QKD_EXPECT_TIMELINE(expect);   // gtest: EXPECT_TRUE(ok()) << report()
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/sim/scenario.hpp"

namespace qkd::sim {

class TimelineExpect {
 public:
  /// The runner must have finished run(); only its recorder and request
  /// outcomes are read. Link checks read the samples of the mesh the
  /// runner bound as `mesh` (`mesh_link<id>_usable`, `_pool_bits`).
  explicit TimelineExpect(const ScenarioRunner& runner) : runner_(runner) {}

  // ---- Link observability ---------------------------------------------------
  /// The link reads unusable in some sample at or before `deadline` (the
  /// alarm/cut was raised in time).
  TimelineExpect& link_down_by(network::LinkId link, SimTime deadline);
  /// The link reads usable again in some sample in (`after`, `deadline`]
  /// (service restored in time).
  TimelineExpect& link_up_by(network::LinkId link, SimTime after,
                             SimTime deadline);
  /// The link's pool holds at least `bits` in some sample at or before
  /// `deadline` (distillation recovered).
  TimelineExpect& pool_at_least_by(network::LinkId link, double bits,
                                   SimTime deadline);

  // ---- Scripted KeyRequest outcomes ----------------------------------------
  TimelineExpect& request_served(std::size_t index);
  TimelineExpect& request_failed(std::size_t index);
  /// The delivered route avoided this link (reroute dodged the damage).
  TimelineExpect& request_avoids_link(std::size_t index, network::LinkId link);
  /// No relay on the delivered route is this node.
  TimelineExpect& request_avoids_node(std::size_t index, network::NodeId node);
  /// The two requests took different routes (a reroute happened between).
  TimelineExpect& requests_rerouted(std::size_t first, std::size_t second);
  /// Delivered without touching a compromised relay.
  TimelineExpect& request_clean(std::size_t index);
  /// Delivered but flagged: some relay on the route was owned.
  TimelineExpect& request_flagged_compromised(std::size_t index);

  // ---- Service classes ------------------------------------------------------
  // A class is named by its metric stem ("kms_realtime"): the checks read
  // `<stem>_shed`, `<stem>_granted` and `<stem>_queue_depth`.
  /// The class's cumulative shed counter stays zero across every sample.
  TimelineExpect& class_never_shed(const std::string& stem);
  /// The class was shed at least once by `deadline`.
  TimelineExpect& class_shed_by(const std::string& stem, SimTime deadline);
  /// Shedding reached `first` no later than it reached `second` (and if
  /// `second` was never shed, any shed of `first` satisfies the order).
  TimelineExpect& shed_order(const std::string& first,
                             const std::string& second);
  /// The class's queue depth is at most `depth` in the last sample at or
  /// after `deadline` (backlog drained in time).
  TimelineExpect& class_queue_at_most_by(const std::string& stem,
                                         std::size_t depth, SimTime deadline);
  /// Grant rate over [recovery_start, end-of-run] is at least `factor` of
  /// the rate over [0, baseline_end] — "recovered to the pre-event grant
  /// rate by T+y" with an explicit tolerance.
  TimelineExpect& grant_rate_recovers(const std::string& stem,
                                      SimTime baseline_end,
                                      SimTime recovery_start, double factor);

  // ---- Annotations ----------------------------------------------------------
  /// Some recorded note contains this substring.
  TimelineExpect& noted(const std::string& substring);

  bool ok() const { return failures_.empty(); }
  /// Every violated expectation, one per line ("timeline ok" when none).
  std::string report() const;

 private:
  const std::vector<TimelinePoint>& points() const {
    return runner_.recorder().points();
  }
  void fail(std::string message) { failures_.push_back(std::move(message)); }
  /// The request outcome, or nullptr after recording an index failure.
  const ScenarioRunner::KeyRequestOutcome* request(std::size_t index,
                                                   const char* check);
  /// First sample time with `<stem>_shed` > 0, or -1.
  SimTime first_shed_time(const std::string& stem) const;
  /// Granted-per-second over (window_start, window_end], from the first and
  /// last samples inside the window that hold `<stem>_granted` (early
  /// samples may predate the service's binding); -1 when under two do.
  double grant_rate(const std::string& stem, SimTime window_start,
                    SimTime window_end) const;

  const ScenarioRunner& runner_;
  std::vector<std::string> failures_;
};

/// gtest glue: report every violated expectation of the block at once.
#define QKD_EXPECT_TIMELINE(expect) \
  EXPECT_TRUE((expect).ok()) << (expect).report()

}  // namespace qkd::sim
