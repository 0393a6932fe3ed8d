// Time-series recording for scenario runs.
//
// A TimelineRecorder periodically takes a snapshot of one MetricsRegistry
// — whatever the stack bound into it: per-link pool depth, usability and
// QBER from a MeshSimulation, gateway tunnel and IKE state, per-class KMS
// queues and grants — into an in-memory series that tests assert on and
// benches and examples print. The alert engine reads the same registry,
// so alerts and timeline see the same samples. Scenario actions are
// recorded alongside as annotations, so a dumped timeline reads as the
// run's story: what was scheduled, when, and what the stack did about it.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/event_scheduler.hpp"

namespace qkd::sim {

struct TimelinePoint {
  SimTime t = 0;
  std::vector<obs::MetricSample> samples;  // the registry's snapshot, by name

  /// The named sample's value (a histogram's count), or nullopt.
  std::optional<double> find(std::string_view name) const;
};

/// A scenario action (or any other notable instant) on the timeline.
struct TimelineNote {
  SimTime t = 0;
  std::string text;
};

class TimelineRecorder {
 public:
  /// `registry` must outlive the recorder's sampling.
  explicit TimelineRecorder(const obs::MetricsRegistry& registry)
      : registry_(registry) {}

  /// Arms periodic sampling on `scheduler` (first sample after one
  /// interval). Call at most once per run.
  void start(EventScheduler& scheduler, SimTime interval);
  void stop();

  /// Takes one sample immediately (also what the periodic event calls).
  /// Throws std::logic_error if the snapshot reports a name twice.
  void sample(SimTime now);

  void note(SimTime t, std::string text);

  /// Bridges recorded trace spans onto the timeline: each span becomes a
  /// note at its sim start ("span <name> (<dur> us)"), interleaved in time
  /// order with the scenario annotations — so one render() tells the
  /// scripted story and what the traced requests did inside it.
  void annotate_spans(const std::vector<obs::Span>& spans);

  const std::vector<TimelinePoint>& points() const { return points_; }
  const std::vector<TimelineNote>& notes() const { return notes_; }

  // ---- Series queries (tests and benches) ---------------------------------
  /// One metric's series, one value per sample (0 where a sample lacks it).
  std::vector<double> series(std::string_view name) const;
  /// First sample time at which `pred(point)` held, or nullopt.
  template <typename Pred>
  std::optional<SimTime> first_time(const Pred& pred) const {
    for (const TimelinePoint& p : points_)
      if (pred(p)) return p.t;
    return std::nullopt;
  }

  /// Renders the series as text (examples, bench logs): one line per
  /// sample with the values that changed since the previous sample, and
  /// the notes interleaved in time order.
  std::string render() const;

  /// The series as CSV: a `t_s` column plus one column per sample name
  /// seen in any point, in name order, one row per sample (0 where a
  /// sample lacks the name), so long load-test timelines can be plotted
  /// outside the process. Annotations are not included — they live in
  /// notes().
  std::string to_csv() const;

 private:
  const obs::MetricsRegistry& registry_;
  std::vector<TimelinePoint> points_;
  std::vector<TimelineNote> notes_;
  EventScheduler* scheduler_ = nullptr;
  EventScheduler::Handle sampling_;
};

}  // namespace qkd::sim
