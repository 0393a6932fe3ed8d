// Exporters: golden Chrome trace-event JSON shape (the contract Perfetto
// and tools/trace_report.py both load), escaping, open-span handling, and
// the TimelineRecorder::annotate_spans bridge.
#include "src/obs/export.hpp"

#include <gtest/gtest.h>

#include <string>

#include "src/sim/timeline.hpp"

namespace qkd::obs {
namespace {

Span make_span(std::uint64_t trace, std::uint64_t id, std::uint64_t parent,
               std::string name, SimTime start, SimTime end,
               std::size_t cell = 0) {
  Span span;
  span.trace_id = trace;
  span.span_id = id;
  span.parent_span = parent;
  span.name = std::move(name);
  span.sim_start = start;
  span.sim_end = end;
  span.wall_start_ns = 1000;
  span.wall_end_ns = 4500;
  span.cell = cell;
  return span;
}

TEST(ChromeTraceExport, GoldenShapeForOneSpan) {
  Span span = make_span(7, 9, 0, "kms.grant_round", 2 * kMillisecond,
                        3 * kMillisecond, 1);
  span.attributes.emplace_back("qos", "realtime");

  // ts/dur are sim-time microseconds; tid is cell+1; ids and wall time
  // ride in args. This exact shape is what Perfetto loads.
  EXPECT_EQ(chrome_trace_json({span}),
            "{\"traceEvents\":[{\"name\":\"kms.grant_round\",\"cat\":\"qkd\","
            "\"ph\":\"X\",\"ts\":2000,\"dur\":1000,\"pid\":1,\"tid\":2,"
            "\"args\":{\"trace_id\":7,\"span_id\":9,\"parent_span\":0,"
            "\"wall_ns\":3500,\"qos\":\"realtime\"}}]}");
}

TEST(ChromeTraceExport, EmptyAndMultiSpanDocumentsStayWellFormed) {
  EXPECT_EQ(chrome_trace_json(std::vector<Span>{}), "{\"traceEvents\":[]}");

  const std::string two = chrome_trace_json(
      {make_span(1, 2, 0, "a", 0, 1000), make_span(1, 3, 2, "b", 0, 500)});
  EXPECT_EQ(two.find("{\"traceEvents\":[{"), 0u);
  EXPECT_NE(two.find("},{"), std::string::npos) << "events comma-separated";
  EXPECT_EQ(two.rfind("}]}"), two.size() - 3);
}

TEST(ChromeTraceExport, OpenSpansExportWithZeroDuration) {
  // sim_end == -1 marks a span still open at export time; it must not
  // produce a negative duration (Perfetto rejects those).
  const std::string json =
      chrome_trace_json({make_span(1, 2, 0, "open", 5000, -1)});
  EXPECT_NE(json.find("\"ts\":5,\"dur\":0"), std::string::npos) << json;
}

TEST(ChromeTraceExport, EscapesQuotesAndControlCharactersInStrings) {
  Span span = make_span(1, 2, 0, "odd\"name", 0, 0);
  span.attributes.emplace_back("note", "line1\nline2\ttab");
  const std::string json = chrome_trace_json({span});
  EXPECT_NE(json.find("\"odd\\\"name\""), std::string::npos) << json;
  EXPECT_NE(json.find("line1\\nline2\\ttab"), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << "raw newline corrupts JSON";
}

TEST(ChromeTraceExport, TracerOverloadExportsRecordedSpans) {
  Tracer tracer;
  tracer.set_enabled(true);
  ScopedSpan span(&tracer, "kms.admit");
  span.finish();
  const std::string json = chrome_trace_json(tracer);
  EXPECT_NE(json.find("\"name\":\"kms.admit\""), std::string::npos);
}

TEST(TimelineBridge, AnnotateSpansInterleavesSpanNotesInTimeOrder) {
  MetricsRegistry registry;
  sim::TimelineRecorder recorder(registry);
  recorder.note(1 * kMillisecond, "link cut");
  recorder.note(5 * kMillisecond, "link healed");

  const auto spans = std::vector<Span>{
      make_span(1, 2, 0, "kms.service_round", 3 * kMillisecond,
                3 * kMillisecond + 500 * kMicrosecond),
      make_span(1, 3, 2, "mesh.hop", 500 * kMicrosecond, 2 * kMillisecond),
      make_span(1, 4, 0, "still.open", 4 * kMillisecond, -1),
  };
  recorder.annotate_spans(spans);

  const auto& notes = recorder.notes();
  ASSERT_EQ(notes.size(), 5u);
  EXPECT_EQ(notes[0].text, "span mesh.hop (1500.0 us)");
  EXPECT_EQ(notes[1].text, "link cut");
  EXPECT_EQ(notes[2].text, "span kms.service_round (500.0 us)");
  EXPECT_EQ(notes[3].text, "span still.open (0.0 us)")
      << "open span clamps to zero duration";
  EXPECT_EQ(notes[4].text, "link healed");

  // And the render path prints them as ** annotations.
  const std::string rendered = recorder.render();
  EXPECT_NE(rendered.find("** span mesh.hop (1500.0 us)"), std::string::npos)
      << rendered;
}

}  // namespace
}  // namespace qkd::obs
