#include "src/sim/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace qkd::sim {

std::optional<double> TimelinePoint::find(std::string_view name) const {
  const auto it =
      std::lower_bound(samples.begin(), samples.end(), name,
                       [](const obs::MetricSample& s, std::string_view n) {
                         return s.name < n;
                       });
  if (it == samples.end() || it->name != name) return std::nullopt;
  return it->value;
}

void TimelineRecorder::start(EventScheduler& scheduler, SimTime interval) {
  if (sampling_.valid())
    throw std::logic_error("TimelineRecorder: sampling already armed");
  scheduler_ = &scheduler;
  sampling_ = scheduler.every(interval, interval,
                              [this](SimTime now) { sample(now); });
}

void TimelineRecorder::stop() {
  if (scheduler_ != nullptr && sampling_.valid()) scheduler_->cancel(sampling_);
  sampling_ = EventScheduler::Handle();
  scheduler_ = nullptr;
}

void TimelineRecorder::sample(SimTime now) {
  TimelinePoint point{now, registry_.snapshot()};
  obs::require_unique_names(point.samples, "TimelineRecorder");
  points_.push_back(std::move(point));
}

void TimelineRecorder::note(SimTime t, std::string text) {
  notes_.push_back(TimelineNote{t, std::move(text)});
}

void TimelineRecorder::annotate_spans(const std::vector<obs::Span>& spans) {
  for (const obs::Span& span : spans) {
    const SimTime end =
        span.sim_end >= span.sim_start ? span.sim_end : span.sim_start;
    char text[128];
    std::snprintf(text, sizeof text, "span %s (%.1f us)", span.name.c_str(),
                  static_cast<double>(end - span.sim_start) / 1e3);
    notes_.push_back(TimelineNote{span.sim_start, text});
  }
  // Interleave with the scenario annotations; stable so same-instant notes
  // keep insertion order (action first, then its spans).
  std::stable_sort(
      notes_.begin(), notes_.end(),
      [](const TimelineNote& a, const TimelineNote& b) { return a.t < b.t; });
}

std::vector<double> TimelineRecorder::series(std::string_view name) const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const TimelinePoint& point : points_)
    out.push_back(point.find(name).value_or(0.0));
  return out;
}

std::string TimelineRecorder::render() const {
  std::string out;
  char line[256];
  // Interleave samples and notes chronologically (notes first on ties, so an
  // action prints before the sample that shows its effect).
  std::size_t note_idx = 0;
  const auto flush_notes = [&](SimTime up_to) {
    while (note_idx < notes_.size() && notes_[note_idx].t <= up_to) {
      std::snprintf(line, sizeof(line), "t=%8.1fs  ** %s\n",
                    sim_to_seconds(notes_[note_idx].t),
                    notes_[note_idx].text.c_str());
      out += line;
      ++note_idx;
    }
  };
  const TimelinePoint* previous = nullptr;
  for (const TimelinePoint& point : points_) {
    flush_notes(point.t);
    std::snprintf(line, sizeof(line), "t=%8.1fs ", sim_to_seconds(point.t));
    out += line;
    for (const obs::MetricSample& sample : point.samples) {
      if (previous != nullptr && previous->find(sample.name) == sample.value)
        continue;
      std::snprintf(line, sizeof(line), " %s=%.10g", sample.name.c_str(),
                    sample.value);
      out += line;
    }
    out += '\n';
    previous = &point;
  }
  flush_notes(notes_.empty() ? 0 : notes_.back().t);
  return out;
}

std::string TimelineRecorder::to_csv() const {
  // The column set is the union over all samples (a collector bound
  // between a stop() and a restart widens later points); rows are
  // zero-padded so every row has the header's arity.
  std::vector<std::string> columns;
  for (const TimelinePoint& point : points_)
    for (const obs::MetricSample& sample : point.samples)
      columns.push_back(sample.name);
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());

  std::string out = "t_s";
  for (const std::string& name : columns) {
    // Labelled names (ALERTS{alertname="...",...}) carry commas and quotes:
    // quote them as RFC 4180 fields.
    if (name.find_first_of(",\"") == std::string::npos) {
      out += "," + name;
      continue;
    }
    out += ",\"";
    for (const char c : name) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
  }
  out += '\n';
  char cell[64];
  for (const TimelinePoint& point : points_) {
    std::snprintf(cell, sizeof(cell), "%.6f", sim_to_seconds(point.t));
    out += cell;
    for (const std::string& name : columns) {
      std::snprintf(cell, sizeof(cell), ",%.10g",
                    point.find(name).value_or(0.0));
      out += cell;
    }
    out += '\n';
  }
  return out;
}

}  // namespace qkd::sim
