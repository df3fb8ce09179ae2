// Tests for the telemetry subsystem: span nesting and parenting, the
// null-sink fast path, metrics semantics, the JSONL schema and the
// golden-trace determinism contract (two same-seed tuning runs emit
// identical traces modulo the t0/t1 timestamp fields).

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/funcy_tuner.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"

namespace ft {
namespace {

/// Records every event in memory for structural assertions.
class RecordingSink final : public telemetry::Sink {
 public:
  void on_span(const telemetry::SpanRecord& span) override {
    spans.push_back(span);
  }
  void on_metric(const telemetry::MetricSample& sample) override {
    metrics.push_back(sample);
  }
  void flush() override { ++flushes; }

  std::vector<telemetry::SpanRecord> spans;
  std::vector<telemetry::MetricSample> metrics;
  int flushes = 0;
};

TEST(Telemetry, DisabledByDefaultAndSpansAreInert) {
  ASSERT_EQ(telemetry::sink(), nullptr);
  EXPECT_FALSE(telemetry::enabled());
  telemetry::Span span = telemetry::tracer().begin("noop");
  EXPECT_FALSE(static_cast<bool>(span));
  EXPECT_EQ(span.id(), 0u);
  span.attr("key", 1.0);  // must not crash
  span.end();
  EXPECT_EQ(telemetry::tracer().current(), 0u);
}

TEST(Telemetry, SinkScopeEnablesAndRestores) {
  auto sink = std::make_shared<RecordingSink>();
  {
    telemetry::SinkScope scope(sink);
    EXPECT_TRUE(telemetry::enabled());
    telemetry::tracer().begin("scoped").end();
  }
  EXPECT_FALSE(telemetry::enabled());
  ASSERT_EQ(sink->spans.size(), 1u);
  EXPECT_EQ(sink->spans[0].name, "scoped");
}

TEST(Telemetry, SpansNestViaThreadLocalScope) {
  auto sink = std::make_shared<RecordingSink>();
  telemetry::SinkScope scope(sink);
  telemetry::tracer().reset_ids();

  telemetry::Span outer = telemetry::tracer().begin("outer");
  EXPECT_EQ(telemetry::tracer().current(), outer.id());
  {
    telemetry::Span inner = telemetry::tracer().begin("inner");
    EXPECT_EQ(telemetry::tracer().current(), inner.id());
    inner.attr("n", std::int64_t{3}).attr("label", "x");
  }
  EXPECT_EQ(telemetry::tracer().current(), outer.id());
  outer.end();

  // Inner ends (and is emitted) first.
  ASSERT_EQ(sink->spans.size(), 2u);
  EXPECT_EQ(sink->spans[0].name, "inner");
  EXPECT_EQ(sink->spans[0].parent, sink->spans[1].id);
  EXPECT_EQ(sink->spans[1].name, "outer");
  EXPECT_EQ(sink->spans[1].parent, 0u);
  EXPECT_GE(sink->spans[0].t1, sink->spans[0].t0);
  ASSERT_EQ(sink->spans[0].num_attrs.size(), 1u);
  EXPECT_EQ(sink->spans[0].num_attrs[0].first, "n");
  ASSERT_EQ(sink->spans[0].str_attrs.size(), 1u);
  EXPECT_EQ(sink->spans[0].str_attrs[0].second, "x");
}

TEST(Telemetry, BeginUnderParentsExplicitly) {
  auto sink = std::make_shared<RecordingSink>();
  telemetry::SinkScope scope(sink);
  telemetry::Span root = telemetry::tracer().begin("root");
  telemetry::Span child =
      telemetry::tracer().begin_under(root.id(), "child");
  const telemetry::SpanId root_id = root.id();
  child.end();
  root.end();
  ASSERT_EQ(sink->spans.size(), 2u);
  EXPECT_EQ(sink->spans[0].parent, root_id);
}

TEST(Telemetry, EndIsIdempotentAndMoveTransfersOwnership) {
  auto sink = std::make_shared<RecordingSink>();
  telemetry::SinkScope scope(sink);
  telemetry::Span a = telemetry::tracer().begin("moved");
  telemetry::Span b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  b.end();
  b.end();
  EXPECT_EQ(sink->spans.size(), 1u);
}

TEST(Telemetry, CounterGaugeHistogramSemantics) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter& counter = registry.counter("c");
  counter.add();
  counter.add(4);
  EXPECT_EQ(counter.value(), 5u);

  telemetry::Gauge& gauge = registry.gauge("g");
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);

  telemetry::Histogram& histogram = registry.histogram("h");
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);  // no observations yet
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
  histogram.observe(1.5);
  histogram.observe(0.25);
  histogram.observe(3.0);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 4.75);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.25);
  EXPECT_DOUBLE_EQ(histogram.max(), 3.0);

  // Same name and kind: the same object. Same name, other kind: error.
  EXPECT_EQ(&registry.counter("c"), &counter);
  EXPECT_THROW((void)registry.gauge("c"), std::logic_error);

  registry.reset();
  EXPECT_EQ(counter.value(), 0u);  // reference survives reset
  EXPECT_EQ(histogram.count(), 0u);

  const std::vector<telemetry::MetricSample> snapshot =
      registry.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);  // sorted by name
  EXPECT_EQ(snapshot[0].name, "c");
  EXPECT_EQ(snapshot[1].name, "g");
  EXPECT_EQ(snapshot[2].name, "h");
}

TEST(Telemetry, FlushMetricsSkipsNondeterministicSamples) {
  auto sink = std::make_shared<RecordingSink>();
  telemetry::SinkScope scope(sink);
  // Process-global registry: use unique names and rely on values.
  telemetry::metrics().counter("test.flush_det").add(7);
  telemetry::metrics().counter("test.flush_nondet", false).add(9);
  telemetry::flush_metrics();
  EXPECT_EQ(sink->flushes, 1);
  bool saw_det = false;
  for (const telemetry::MetricSample& sample : sink->metrics) {
    EXPECT_TRUE(sample.deterministic);
    EXPECT_NE(sample.name, "test.flush_nondet");
    saw_det |= sample.name == "test.flush_det";
  }
  EXPECT_TRUE(saw_det);
}

TEST(Telemetry, JsonlSchema) {
  telemetry::SpanRecord span;
  span.id = 2;
  span.parent = 1;
  span.name = "phase \"x\"";
  span.t0 = 0.5;
  span.t1 = 1.25;
  span.num_attrs.emplace_back("count", 3.0);
  span.str_attrs.emplace_back("algo", "cfr");
  EXPECT_EQ(telemetry::span_json(span),
            "{\"type\":\"span\",\"id\":2,\"parent\":1,"
            "\"name\":\"phase \\\"x\\\"\",\"t0\":0.5,\"t1\":1.25,"
            "\"attrs\":{\"count\":3,\"algo\":\"cfr\"}}");

  telemetry::MetricSample counter;
  counter.name = "compiler.builds";
  counter.kind = telemetry::MetricSample::Kind::kCounter;
  counter.value = 166.0;
  EXPECT_EQ(telemetry::metric_json(counter),
            "{\"type\":\"metric\",\"name\":\"compiler.builds\","
            "\"kind\":\"counter\",\"value\":166}");

  telemetry::MetricSample histogram;
  histogram.name = "engine.run_seconds";
  histogram.kind = telemetry::MetricSample::Kind::kHistogram;
  histogram.count = 2;
  histogram.sum = 3.5;
  histogram.min = 1.0;
  histogram.max = 2.5;
  EXPECT_EQ(telemetry::metric_json(histogram),
            "{\"type\":\"metric\",\"name\":\"engine.run_seconds\","
            "\"kind\":\"histogram\",\"count\":2,\"sum\":3.5,"
            "\"min\":1,\"max\":2.5}");
}

TEST(Telemetry, JsonlSinkWritesOneLinePerEvent) {
  std::ostringstream out;
  telemetry::JsonlSink sink(out);
  telemetry::SpanRecord span;
  span.id = 1;
  span.name = "s";
  sink.on_span(span);
  telemetry::MetricSample sample;
  sample.name = "m";
  sink.on_metric(sample);
  EXPECT_EQ(sink.lines(), 2u);  // the meta schema line is not an event
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  // First line declares the artifact schema, then the events follow.
  EXPECT_EQ(text.find("{\"type\":\"meta\",\"schema_version\":"), 0u);
  EXPECT_NE(text.find("\"type\":\"span\""), std::string::npos);
}

/// Strips "t0":... and "t1":... (the only nondeterministic span
/// fields) from a JSONL line.
std::string strip_timestamps(const std::string& line) {
  std::string out;
  std::size_t i = 0;
  while (i < line.size()) {
    if (line.compare(i, 5, "\"t0\":") == 0 ||
        line.compare(i, 5, "\"t1\":") == 0) {
      i += 5;
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
      continue;
    }
    out.push_back(line[i]);
    ++i;
  }
  return out;
}

/// Golden-trace smoke: a tiny tuning run traced twice with the same
/// seed produces identical event streams modulo timestamps.
TEST(Telemetry, GoldenTraceIsDeterministicForFixedSeed) {
  auto run_traced = [](std::ostringstream& out) {
    // Shared process-wide state: zero the metric values and restart
    // span ids so both runs start from the same telemetry state.
    telemetry::metrics().reset();
    telemetry::SinkScope scope(
        std::make_shared<telemetry::JsonlSink>(out));
    telemetry::tracer().reset_ids();
    core::FuncyTunerOptions options;
    options.samples = 12;
    options.algorithm_options["cfr"] = {"--top-x=3"};
    core::FuncyTuner tuner(programs::swim(), machine::broadwell(),
                           options);
    (void)tuner.run("cfr");
    telemetry::flush_metrics();
  };

  std::ostringstream first, second;
  run_traced(first);
  run_traced(second);

  std::istringstream a(first.str()), b(second.str());
  std::string line_a, line_b;
  std::size_t lines = 0;
  while (std::getline(a, line_a)) {
    ASSERT_TRUE(static_cast<bool>(std::getline(b, line_b)));
    EXPECT_EQ(strip_timestamps(line_a), strip_timestamps(line_b));
    ++lines;
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(b, line_b)));
  // outline + collection + search + batch + final_measure + baseline
  // spans at minimum, plus metric samples.
  EXPECT_GE(lines, 8u);
  // The span tree covers the phases the acceptance criteria name.
  for (const char* needle :
       {"\"name\":\"outline\"", "\"name\":\"collection\"",
        "\"name\":\"search:CFR\"", "\"name\":\"final_measure\"",
        "\"name\":\"baseline\""}) {
    EXPECT_NE(first.str().find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace ft
