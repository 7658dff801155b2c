// Unified telemetry subsystem: registry semantics, the span tracer, the
// three exporters, the training dashboard, and the metric series the
// instrumented layers (engine, ft) actually emit.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "engine/job.h"
#include "ft/workflow.h"
#include "telemetry/dashboard.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ms::telemetry {
namespace {

// ------------------------------------------------------------- registry

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry reg;
  auto& c = reg.counter("events_total");
  c.add();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Same (name, labels) resolves to the same cell.
  reg.counter("events_total").add();
  EXPECT_DOUBLE_EQ(c.value(), 4.5);
  EXPECT_EQ(reg.series_count(), 1u);
}

TEST(Metrics, CounterIsThreadSafe) {
  MetricsRegistry reg;
  auto& c = reg.counter("contended_total");
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_DOUBLE_EQ(c.value(), 40000.0);
}

TEST(Metrics, GaugeHoldsLastValue) {
  MetricsRegistry reg;
  auto& g = reg.gauge("mfu");
  g.set(0.55);
  g.set(0.62);
  EXPECT_DOUBLE_EQ(g.value(), 0.62);
}

TEST(Metrics, LabeledSeriesAreDistinct) {
  MetricsRegistry reg;
  reg.counter("bytes_total", {{"op", "allgather"}, {"rank", "3"}}).add(10);
  reg.counter("bytes_total", {{"op", "allreduce"}, {"rank", "3"}}).add(20);
  EXPECT_EQ(reg.series_count(), 2u);
  // Label order is canonicalized: {rank,op} is the same series as {op,rank}.
  reg.counter("bytes_total", {{"rank", "3"}, {"op", "allgather"}}).add(5);
  EXPECT_EQ(reg.series_count(), 2u);
  const auto snap = reg.snapshot();
  const auto* s =
      snap.find("bytes_total", {{"op", "allgather"}, {"rank", "3"}});
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 15.0);
}

TEST(Metrics, EncodeLabelsCanonical) {
  EXPECT_EQ(encode_labels({}), "");
  EXPECT_EQ(encode_labels({{"b", "2"}, {"a", "1"}}), "{a=\"1\",b=\"2\"}");
}

TEST(Metrics, HistogramMergesAcrossInstances) {
  // Per-rank histograms share the fixed bucket layout, so an aggregator
  // can merge them element-wise (the §5 per-machine -> fleet rollup).
  MetricsRegistry reg;
  auto& rank0 = reg.histogram("latency_seconds", {{"rank", "0"}});
  auto& rank1 = reg.histogram("latency_seconds", {{"rank", "1"}});
  for (int i = 1; i <= 50; ++i) rank0.observe(i * 1e-3);
  for (int i = 51; i <= 100; ++i) rank1.observe(i * 1e-3);
  HdrHistogram merged = rank0.snapshot();
  merged.merge(rank1.snapshot());
  EXPECT_EQ(merged.total(), 100u);
  EXPECT_NEAR(merged.mean(), 0.0505, 1e-6);
  EXPECT_NEAR(merged.p50(), 0.050, 0.005);
  EXPECT_NEAR(merged.quantile(1.0), 0.100, 1e-9);
}

// --------------------------------------------------------------- tracer

TEST(Tracer, RecordsSpansInOrder) {
  Tracer tracer;
  tracer.record({0, "fwd-0", "fwd", 0, 10});
  tracer.record({1, "bwd-0", "bwd", 10, 30});
  EXPECT_EQ(tracer.size(), 2u);
  const auto spans = tracer.spans();
  EXPECT_EQ(spans[0].name, "fwd-0");
  EXPECT_EQ(spans[1].rank, 1);
}

TEST(Tracer, TimelineFilterKeepsMatchingTags) {
  Tracer tracer;
  tracer.record({0, "f", "fwd", 0, 10});
  tracer.record({0, "d", "dp-comm", 10, 20});
  tracer.record({1, "b", "bwd", 0, 15});
  const auto all = tracer.timeline();
  EXPECT_EQ(all.rank_spans(0).size(), 2u);
  const auto compute = tracer.timeline(
      [](const diag::TraceSpan& s) { return s.tag != "dp-comm"; });
  EXPECT_EQ(compute.rank_spans(0).size(), 1u);
  EXPECT_EQ(compute.rank_spans(1).size(), 1u);
}

// ------------------------------------------------------------ exporters

TEST(Exporters, PrometheusTextWellFormed) {
  MetricsRegistry reg;
  reg.counter("requests_total", {{"op", "allgather"}}).add(7);
  reg.gauge("queue_depth").set(123.5);
  auto& h = reg.histogram("latency_seconds");
  h.observe(0.001);
  h.observe(0.002);
  h.observe(5.0);
  const std::string text = prometheus_text(reg.snapshot());

  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("requests_total{op=\"allgather\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("queue_depth 123.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_seconds histogram"), std::string::npos);
  // Histogram contract: cumulative buckets ending in +Inf, plus _sum/_count.
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count 3"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_sum"), std::string::npos);

  // Cumulative bucket counts never decrease.
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  int buckets = 0;
  while ((pos = text.find("latency_seconds_bucket", pos)) !=
         std::string::npos) {
    const std::size_t space = text.find(' ', pos);
    const std::uint64_t v = std::stoull(text.substr(space + 1));
    EXPECT_GE(v, prev);
    prev = v;
    ++buckets;
    pos = space;
  }
  EXPECT_GE(buckets, 3);
}

TEST(Exporters, PrometheusSanitizesNames) {
  MetricsRegistry reg;
  reg.counter("weird.metric-name", {{"k", "va\"lue\n"}}).add();
  const std::string text = prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("weird_metric_name"), std::string::npos);
  EXPECT_NE(text.find("\\\""), std::string::npos);  // escaped quote
  EXPECT_NE(text.find("\\n"), std::string::npos);   // escaped newline
}

TEST(Exporters, JsonlEveryLineParses) {
  MetricsRegistry reg;
  reg.counter("a_total", {{"op", "x"}}).add(2);
  reg.gauge("b").set(1.5);
  reg.histogram("c_seconds").observe(0.25);
  Tracer tracer;
  tracer.record({0, "fwd \"quoted\"", "fwd", 0, 1000});

  const std::string log =
      jsonl_metrics(reg.snapshot()) + jsonl_spans(tracer.spans());
  std::size_t lines = 0;
  std::size_t pos = 0;
  std::set<std::string> types;
  while (pos < log.size()) {
    std::size_t eol = log.find('\n', pos);
    if (eol == std::string::npos) eol = log.size();
    const std::string line = log.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    ++lines;
    json::Value v;
    ASSERT_TRUE(json::parse(line, v));
    ASSERT_TRUE(v.is_object()) << line;
    types.insert(v.at("type").str);
  }
  EXPECT_EQ(lines, 4u);
  EXPECT_EQ(types, (std::set<std::string>{"counter", "gauge", "histogram",
                                          "span"}));
}

TEST(Exporters, ChromeTraceParsesAndMatchesSpans) {
  Tracer tracer;
  tracer.record({0, "fwd-1", "fwd", microseconds(1.0), microseconds(3.0)});
  tracer.record({1, "bwd-1", "bwd", microseconds(3.0), microseconds(7.0)});
  json::Value v;
  ASSERT_TRUE(json::parse(chrome_trace(tracer), v));
  ASSERT_TRUE(v.is_object());
  const auto& events = v.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.size(), 2u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].at("ph").str, "X");
    EXPECT_TRUE(events[i].has("ts"));
    EXPECT_TRUE(events[i].has("dur"));
  }
}

// ------------------------------------------- instrumented layer metrics

engine::JobConfig small_job() {
  engine::JobConfig cfg;
  cfg.model = model::config_175b();
  cfg.model.layers = 16;
  cfg.par = parallel::ParallelConfig{.tp = 8, .pp = 4, .dp = 1, .vpp = 2};
  cfg.global_batch = 8;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = engine::OverlapOptions::megascale();
  return cfg;
}

TEST(Instrumentation, EngineEmitsSpansAndMetrics) {
  MetricsRegistry reg;
  Tracer tracer;
  auto cfg = small_job();
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  const auto iter = engine::simulate_iteration(cfg);

  EXPECT_EQ(tracer.size(), iter.spans.size());
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.find("engine_iterations_total")->value, 1.0);
  EXPECT_NEAR(snap.find("engine_mfu")->value, iter.mfu, 1e-12);
  const auto* fwd = snap.find("engine_ops_total", {{"op", "fwd"}});
  ASSERT_NE(fwd, nullptr);
  EXPECT_GT(fwd->value, 0.0);
  // Collectives triggered by the iteration record latency histograms.
  bool saw_collective = false;
  for (const auto& s : snap.samples) {
    if (s.name == "collective_latency_seconds") saw_collective = true;
  }
  EXPECT_TRUE(saw_collective);
}

TEST(Instrumentation, WorkflowCountsIncidentsAndHealth) {
  MetricsRegistry reg;
  ft::WorkflowConfig cfg;
  cfg.nodes = 16;
  cfg.metrics = &reg;
  const TimeNs duration = days(2.0);
  Rng fault_rng(21);
  auto faults = ft::draw_fault_schedule(duration, hours(6.0), cfg.nodes,
                                        ft::default_fault_mix(), fault_rng);
  Rng rng(22);
  const auto report = ft::run_robust_training(cfg, duration, faults, rng);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.find("ft_restarts_total")->value,
                   static_cast<double>(report.restarts));
  EXPECT_NEAR(snap.find("ft_effective_time_ratio")->value,
              report.effective_time_ratio, 1e-12);
  if (report.restarts > 0) {
    EXPECT_EQ(snap.find("ft_detect_latency_seconds")->hist.total(),
              static_cast<std::uint64_t>(report.restarts));
    EXPECT_GT(snap.find("ft_heartbeats_total")->value, 0.0);
  }
}

// ------------------------------------------------------------ dashboard

TEST(Dashboard, RollsStepsIntoReport) {
  MetricsRegistry reg;
  TrainingDashboard dash(&reg);
  auto cfg = small_job();
  const auto iter = engine::simulate_iteration(cfg);
  const auto& step = dash.record_step(cfg, iter);

  EXPECT_EQ(step.step, 0);
  EXPECT_EQ(step.iteration_time, iter.iteration_time);
  EXPECT_DOUBLE_EQ(step.mfu, iter.mfu);
  EXPECT_GT(step.comm_total, 0);
  EXPECT_EQ(step.comm_total, step.comm_exposed + step.comm_overlapped);
  EXPECT_GE(step.bubble_fraction, 0.0);
  EXPECT_LE(step.bubble_fraction, 1.0);
  EXPECT_DOUBLE_EQ(dash.mean_mfu(), iter.mfu);

  // Mirrored into the registry for the exporters.
  const auto snap = reg.snapshot();
  EXPECT_NEAR(snap.find("dashboard_mfu")->value, iter.mfu, 1e-12);
  EXPECT_EQ(snap.find("dashboard_step_seconds")->hist.total(), 1u);

  const std::string report = dash.report();
  EXPECT_NE(report.find("MFU"), std::string::npos);
  EXPECT_NE(report.find("bubble"), std::string::npos);
}

TEST(Dashboard, FindsStragglersFromMachineSamples) {
  TrainingDashboard dash;
  for (int machine = 0; machine < 16; ++machine) {
    const double factor = machine == 11 ? 1.10 : 1.0;
    for (int step = 0; step < 10; ++step) {
      dash.add_machine_sample(machine, "fwd", 0.010 * factor);
    }
  }
  const auto stragglers = dash.straggler_machines(0.05);
  ASSERT_EQ(stragglers.size(), 1u);
  EXPECT_EQ(stragglers[0], 11);
  EXPECT_NEAR(dash.worst_straggler_delta(), 0.10, 0.02);
}

TEST(Dashboard, HealthSectionFromRunReport) {
  TrainingDashboard dash;
  ft::RunReport report;
  report.duration = days(7.0);
  report.restarts = 3;
  report.auto_detected_fraction = 0.9;
  report.effective_time_ratio = 0.93;
  dash.record_health(report);
  const std::string text = dash.report();
  EXPECT_NE(text.find("restarts"), std::string::npos);
  EXPECT_NE(text.find("93."), std::string::npos);
}

TEST(Dashboard, DiagnosisSectionAndBlameMetrics) {
  MetricsRegistry reg;
  TrainingDashboard dash(&reg);

  diag::StepDiagnosis d;
  d.makespan = seconds(12.0);
  d.blame.push_back({diag::SegmentKind::kStragglerWait, 3, "", seconds(4.0),
                     4.0 / 12.0});
  d.blame.push_back({diag::SegmentKind::kSlowLink, 2, "2->3",
                     milliseconds(50.0), 0.004});
  dash.record_diagnosis(d);

  const std::string text = dash.report();
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("straggler-wait"), std::string::npos);
  EXPECT_NE(text.find("rank 3"), std::string::npos);

  const auto snap = reg.snapshot();
  const auto* path = snap.find("diag_critical_path_seconds");
  ASSERT_NE(path, nullptr);
  EXPECT_DOUBLE_EQ(path->value, 12.0);
  const auto* straggler = snap.find(
      "diag_blame_total", {{"cause", "straggler-wait"}, {"rank", "3"}});
  ASSERT_NE(straggler, nullptr);
  EXPECT_DOUBLE_EQ(straggler->value, 4.0);
  const auto* link = snap.find(
      "diag_blame_total",
      {{"cause", "slow-link"}, {"link", "2->3"}, {"rank", "2"}});
  ASSERT_NE(link, nullptr);
  EXPECT_DOUBLE_EQ(link->value, 0.05);
}

// ------------------------------------------- histogram overflow alarm

TEST(Metrics, SketchOverflowCounterSynthesized) {
  MetricsRegistry reg;
  auto& h = reg.histogram("step_seconds", {{"job", "a"}});
  h.observe(12.0);           // in range
  h.observe(5.0e12);         // beyond HdrHistogram::kRangeHi
  h.observe(7.0e12);
  const auto snap = reg.snapshot();
  double overflow = -1;
  for (const auto& s : snap.samples) {
    if (s.name != "telemetry_sketch_overflow_total") continue;
    overflow = s.value;
    EXPECT_EQ(s.kind, MetricKind::kCounter);
    // Labeled with the offending series so the alarm names its source.
    bool found_metric_label = false;
    for (const auto& [k, v] : s.labels) {
      if (k == "metric") {
        EXPECT_EQ(v, "step_seconds");
        found_metric_label = true;
      }
    }
    EXPECT_TRUE(found_metric_label);
  }
  EXPECT_DOUBLE_EQ(overflow, 2.0);
}

TEST(Metrics, NoOverflowCounterWhenInRange) {
  MetricsRegistry reg;
  reg.histogram("step_seconds").observe(12.0);
  for (const auto& s : reg.snapshot().samples) {
    EXPECT_NE(s.name, "telemetry_sketch_overflow_total");
  }
}

TEST(Dashboard, SurfacesSketchOverflow) {
  MetricsRegistry reg;
  TrainingDashboard dash(&reg);
  reg.histogram("step_seconds").observe(1.0);
  EXPECT_EQ(dash.report().find("sketch overflow"), std::string::npos);
  reg.histogram("step_seconds").observe(5.0e12);  // mis-scaled sample
  EXPECT_NE(dash.report().find("sketch overflow"), std::string::npos);
}

}  // namespace
}  // namespace ms::telemetry
