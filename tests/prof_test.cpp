// Self-profiler tests: src/prof/profiler.cpp aggregation cells,
// src/prof/report.cpp artifacts, src/prof/msprof.cpp workloads + CLI, and
// the src/core/wallclock.cpp monotonic clock they all sample.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "core/wallclock.h"
#include "engine/job.h"
#include "prof/msprof.h"
#include "prof/profiler.h"
#include "prof/report.h"
#include "prof/telemetry_bridge.h"
#include "telemetry/metrics.h"

namespace ms::prof {
namespace {

/// Every test starts from a clean, disabled profiler (the profiler is a
/// process-wide singleton; tests run one per process under ctest, but the
/// guard also makes them order-independent inside one binary).
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    set_tracing(false);
    reset();
  }
  void TearDown() override {
    set_enabled(false);
    set_tracing(false);
    reset();
  }
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

// ------------------------------------------------------------- wallclock

TEST(Wallclock, MonotonicNonDecreasing) {
  const WallNs a = wallclock_ns();
  const WallNs b = wallclock_ns();
  EXPECT_LE(a, b);
  EXPECT_GT(a, 0);
}

TEST(Wallclock, AdvancesAcrossASleep) {
  const WallNs a = wallclock_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(wallclock_ns() - a, 1'000'000);
}

TEST(Wallclock, SecondsConversion) {
  EXPECT_DOUBLE_EQ(wall_to_seconds(1'500'000'000), 1.5);
  EXPECT_DOUBLE_EQ(wall_to_seconds(0), 0.0);
}

// -------------------------------------------------------------- profiler

TEST_F(ProfTest, RegisterScopeIsIdempotent) {
  const ScopeId a = register_scope("test.alpha");
  const ScopeId b = register_scope("test.alpha");
  const ScopeId c = register_scope("test.beta");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(scope_name(a), "test.alpha");
  EXPECT_EQ(scope_name(c), "test.beta");
}

// The macro-free ScopeTimer path works in every build config; the
// MS_PROF_SCOPE macro itself is exercised (or proven compiled-out) below.
TEST_F(ProfTest, ScopesAggregateCounts) {
  set_enabled(true);
  const ScopeId id = register_scope("test.loop_body");
  for (int i = 0; i < 100; ++i) {
    ScopeTimer t(id);
  }
  const auto snap = snapshot();
  bool found = false;
  for (const auto& s : snap) {
    if (s.name != "test.loop_body") continue;
    found = true;
    EXPECT_EQ(s.count, 100u);
    EXPECT_GE(s.max_ns, s.min_ns);
    EXPECT_GE(s.total_ns, s.self_ns);
    EXPECT_EQ(s.hist_ns.total(), 100u);
  }
  EXPECT_TRUE(found);
}

TEST_F(ProfTest, NestedScopesSplitSelfTime) {
  set_enabled(true);
  const ScopeId outer = register_scope("test.outer");
  const ScopeId inner = register_scope("test.inner");
  {
    ScopeTimer t_outer(outer);
    for (int i = 0; i < 50; ++i) {
      ScopeTimer t_inner(inner);
    }
  }
  std::uint64_t outer_total = 0, outer_self = 0, inner_total = 0;
  for (const auto& s : snapshot()) {
    if (s.name == "test.outer") {
      outer_total = s.total_ns;
      outer_self = s.self_ns;
    }
    if (s.name == "test.inner") inner_total = s.total_ns;
  }
  // The inner scopes' time is charged to outer's children, not its self.
  EXPECT_LT(outer_self, outer_total);
  EXPECT_LE(inner_total, outer_total);
}

TEST_F(ProfTest, DisabledProfilerCollectsNothing) {
  ASSERT_FALSE(enabled());
  const ScopeId id = register_scope("test.dormant");
  for (int i = 0; i < 10; ++i) {
    ScopeTimer t(id);
  }
  for (const auto& s : snapshot()) EXPECT_EQ(s.count, 0u) << s.name;
}

#if defined(MS_PROF_ENABLED) && MS_PROF_ENABLED
TEST_F(ProfTest, ScopeMacroRecordsWhenCompiledIn) {
  set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    MS_PROF_SCOPE("test.macro");
  }
  bool found = false;
  for (const auto& s : snapshot()) {
    if (s.name == "test.macro") {
      found = true;
      EXPECT_EQ(s.count, 3u);
    }
  }
  EXPECT_TRUE(found);
}
#else
TEST_F(ProfTest, ScopeMacroCompilesToNothingWhenOff) {
  set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    MS_PROF_SCOPE("test.macro");
  }
  for (const auto& s : snapshot()) EXPECT_EQ(s.count, 0u) << s.name;
}
#endif

TEST_F(ProfTest, TraceRingRecordsSpans) {
  set_enabled(true);
  set_tracing(true);
  const ScopeId id = register_scope("test.traced");
  {
    ScopeTimer t(id);
  }
  {
    ScopeTimer t(id);
  }
  std::uint64_t dropped = 7;
  const auto events = drain_trace(&dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(scope_name(events[0].id), "test.traced");
  EXPECT_LE(events[0].start, events[1].start);
  // Draining empties the ring.
  EXPECT_TRUE(drain_trace().empty());
}

TEST_F(ProfTest, SnapshotMergesThreads) {
  set_enabled(true);
  const ScopeId id = register_scope("test.mt");
  auto body = [id] {
    for (int i = 0; i < 1000; ++i) {
      ScopeTimer t(id);
    }
  };
  std::thread a(body), b(body);
  body();
  a.join();
  b.join();
  for (const auto& s : snapshot()) {
    if (s.name == "test.mt") {
      EXPECT_EQ(s.count, 3000u);
    }
  }
}

// ---------------------------------------------------------------- report

ProfileReport sample_report() {
  ProfileReport r;
  r.workload = "unit";
  r.wall_ns = 1'000'000;
  r.events = 42;
  ScopeStats a;
  a.name = "scope.a";
  a.count = 10;
  a.total_ns = 600'000;
  a.self_ns = 500'000;
  a.min_ns = 1'000;
  a.max_ns = 90'000;
  a.p50_ns = 40'000;
  a.p99_ns = 88'000;
  ScopeStats b;
  b.name = "scope.b";
  b.count = 5;
  b.total_ns = 400'000;
  b.self_ns = 400'000;
  r.scopes = {a, b};
  return r;
}

TEST(ProfileReportTest, AttributedFractionSumsSelfTime) {
  const auto r = sample_report();
  EXPECT_DOUBLE_EQ(r.attributed_fraction(), 0.9);
  EXPECT_DOUBLE_EQ(r.events_per_sec(), 42'000.0);
}

TEST(ProfileReportTest, DigestIgnoresWallClockValues) {
  const auto base = sample_report();
  auto timing_shift = base;
  timing_shift.wall_ns *= 3;
  timing_shift.scopes[0].self_ns = 1;
  timing_shift.scopes[0].total_ns = 2;
  timing_shift.scopes[1].p99_ns = 999.0;
  EXPECT_EQ(base.digest(), timing_shift.digest());

  // Rank order must not matter either: digest sorts by name.
  auto reordered = base;
  std::swap(reordered.scopes[0], reordered.scopes[1]);
  EXPECT_EQ(base.digest(), reordered.digest());

  // But structure does: a different sample count is a real change.
  auto recount = base;
  recount.scopes[0].count += 1;
  EXPECT_NE(base.digest(), recount.digest());
  auto renamed = base;
  renamed.scopes[0].name = "scope.c";
  EXPECT_NE(base.digest(), renamed.digest());
}

TEST(ProfileReportTest, JsonlRoundTrips) {
  const auto r = sample_report();
  ProfileReport parsed;
  std::string error;
  ASSERT_TRUE(parse_jsonl(r.to_jsonl(), parsed, &error)) << error;
  EXPECT_EQ(parsed.workload, "unit");
  EXPECT_EQ(parsed.wall_ns, r.wall_ns);
  EXPECT_EQ(parsed.events, r.events);
  ASSERT_EQ(parsed.scopes.size(), 2u);
  EXPECT_EQ(parsed.scopes[0].name, "scope.a");
  EXPECT_EQ(parsed.scopes[0].count, 10u);
  EXPECT_EQ(parsed.scopes[0].total_ns, 600'000u);
  EXPECT_DOUBLE_EQ(parsed.scopes[0].p99_ns, 88'000.0);
  EXPECT_EQ(parsed.digest(), r.digest());

  // Quantiles keep every bit (6 significant digits used to turn
  // 4831838123.4 ns into 4.83184e+09).
  auto precise = r;
  precise.scopes[0].p50_ns = 4'831'838'123.4;
  precise.scopes[0].p99_ns = 1.0 / 3.0;
  ASSERT_TRUE(parse_jsonl(precise.to_jsonl(), parsed, &error)) << error;
  EXPECT_EQ(parsed.scopes[0].p50_ns, precise.scopes[0].p50_ns);
  EXPECT_EQ(parsed.scopes[0].p99_ns, precise.scopes[0].p99_ns);
}

TEST(ProfileReportTest, ParseRejectsMalformedInput) {
  ProfileReport out;
  std::string error;
  EXPECT_FALSE(parse_jsonl("{\"kind\":\"scope\",\"name\":\"x\"}\n", out,
                           &error));
  EXPECT_NE(error.find("header"), std::string::npos);
  EXPECT_FALSE(parse_jsonl("not json\n", out, &error));
  EXPECT_EQ(error, "line 1, byte 1: malformed JSON");  // "no" is not null
  EXPECT_FALSE(
      parse_jsonl("{\"kind\":\"mystery\"}\n", out, &error));
  // Negative, NaN and missing numbers fail the load, naming line and field,
  // instead of wrapping to 2^64 - 1 or reading as 0.
  const std::string header =
      R"({"kind":"profile","workload":"w","wall_ns":1,"events":2})";
  const std::string scope = R"({"kind":"scope","name":"s","count":3,)"
                            R"("total_ns":0,"self_ns":0,"min_ns":0,"max_ns":0,)"
                            R"("p50_ns":0,"p99_ns":0})";
  const auto swap = [](std::string text, const std::string& from,
                       const std::string& to) {
    return text.replace(text.find(from), from.size(), to);
  };
  const std::string kRange = ", expects an integer in [0, 9223372036854775807]";
  using Case = std::pair<std::string, std::string>;
  for (const auto& [text, want] : std::vector<Case>{
           {swap(swap(header, "\"wall_ns\":1", "\"wall_ns\":-1"),
                 "\"events\":2", "\"events\":NaN") + "\n" + scope,
            R"(line 1: field "wall_ns": got -1)" + kRange},
           {swap(header, "\"events\":2", "\"events\":NaN") + "\n" + scope,
            R"(line 1: field "events": got nan)" + kRange},
           {header + "\n" + swap(scope, "\"count\":3", "\"count\":-3"),
            R"(line 2: field "count": got -3)" + kRange},
           {"{\"kind\":\"profile\"}\n{\"kind\":\"scope\"}\n",
            R"(line 1: field "workload": missing, expects a string)"},
           {"[1]\n", "line 1: got an array, expects an object"}}) {
    EXPECT_FALSE(parse_jsonl(text, out, &error)) << text;
    EXPECT_EQ(error, want);
  }
  EXPECT_TRUE(parse_jsonl(header + "\n" + scope, out, &error)) << error;
}

TEST(ProfileReportTest, RenderShowsRankedScopes) {
  const auto text = sample_report().render();
  EXPECT_NE(text.find("scope.a"), std::string::npos);
  EXPECT_NE(text.find("90.0% attributed"), std::string::npos);
  // top_k truncates.
  const auto one = sample_report().render(1);
  EXPECT_NE(one.find("scope.a"), std::string::npos);
  EXPECT_EQ(one.find("| scope.b"), std::string::npos);
}

TEST(ProfileReportTest, DiffMarksNewAndGoneScopes) {
  auto base = sample_report();
  auto cand = sample_report();
  cand.scopes[0].name = "scope.fresh";
  const auto text = render_diff(base, cand);
  EXPECT_NE(text.find("scope.fresh"), std::string::npos);
  EXPECT_NE(text.find("new"), std::string::npos);
  EXPECT_NE(text.find("gone"), std::string::npos);
}

TEST_F(ProfTest, ChromeTraceContainsSpans) {
  set_enabled(true);
  set_tracing(true);
  const ScopeId id = register_scope("test.span");
  {
    ScopeTimer t(id);
  }
  const auto events = drain_trace();
  const auto json = to_chrome_trace(events, 3);
  EXPECT_NE(json.find("megascale-sim (self)"), std::string::npos);
  EXPECT_NE(json.find("\"test.span\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":3"), std::string::npos);
  EXPECT_NE(json.find("sim-thread-"), std::string::npos);
  // 4.2 s after the first span ts keeps nanoseconds (6 significant digits
  // used to round it to 10 us steps while the spans last 0.15 us).
  const auto far =
      to_chrome_trace({{id, 1'000, 150, 0}, {id, 4'200'001'007, 150, 0}});
  EXPECT_NE(far.find("\"ts\":4200000.007,\"dur\":0.150"), std::string::npos)
      << far;
}

TEST_F(ProfTest, CaptureRanksBySelfTime) {
  set_enabled(true);
  const ScopeId cheap = register_scope("test.cheap");
  const ScopeId costly = register_scope("test.costly");
  {
    ScopeTimer t(cheap);
  }
  {
    ScopeTimer t(costly);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto report = capture("capture_unit", wallclock_ns(), 2);
  ASSERT_GE(report.scopes.size(), 2u);
  EXPECT_EQ(report.scopes.front().name, "test.costly");
  EXPECT_EQ(report.workload, "capture_unit");
  // A one-sample scope's quantiles are its sample (log2-bucket midpoints
  // used to land above the scope's own max).
  for (const ScopeStats& s : report.scopes) {
    if (s.count != 1) continue;
    EXPECT_EQ(s.p50_ns, static_cast<double>(s.max_ns)) << s.name;
    EXPECT_EQ(s.p99_ns, static_cast<double>(s.min_ns)) << s.name;
  }
}

// ------------------------------------------------------ telemetry bridge

TEST_F(ProfTest, ExportProfilePopulatesRegistry) {
  telemetry::MetricsRegistry registry;
  export_profile(sample_report(), registry);
  const auto snap = registry.snapshot();
  const auto* events = snap.find("prof_events_total");
  ASSERT_NE(events, nullptr);
  EXPECT_DOUBLE_EQ(events->value, 42.0);
  const auto* samples =
      snap.find("prof_scope_samples", {{"scope", "scope.a"}});
  ASSERT_NE(samples, nullptr);
  EXPECT_DOUBLE_EQ(samples->value, 10.0);
}

TEST_F(ProfTest, ProfileSketchExportsHistograms) {
  set_enabled(true);
  const ScopeId id = register_scope("test.sketched");
  {
    ScopeTimer t(id);
  }
  const auto sketch = profile_sketch();
  EXPECT_FALSE(sketch.empty());
}

// ------------------------------------------------------------- workloads

TEST_F(ProfTest, MicroEngineIsDeterministic) {
  MicroEngineConfig cfg;
  cfg.chains = 2;
  cfg.chain_events = 200;
  cfg.fanout_events = 300;
  const auto a = run_micro_engine(cfg);
  const auto b = run_micro_engine(cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.events, 2u * 200u + 300u);
  EXPECT_EQ(a.peak_queue, 300u);
}

TEST_F(ProfTest, MicroEngineDigestUnchangedByProfiling) {
  MicroEngineConfig cfg;
  cfg.chains = 2;
  cfg.chain_events = 100;
  cfg.fanout_events = 100;
  ASSERT_FALSE(enabled());
  const auto dormant = run_micro_engine(cfg);
  set_enabled(true);
  set_tracing(true);
  const auto profiled = run_micro_engine(cfg);
  EXPECT_EQ(dormant.digest, profiled.digest);
  EXPECT_EQ(dormant.events, profiled.events);
#if defined(MS_PROF_ENABLED) && MS_PROF_ENABLED
  // And the profiled run actually measured something.
  bool saw_pop = false;
  for (const auto& s : snapshot()) {
    if (s.name == "engine.pop" && s.count > 0) saw_pop = true;
  }
  EXPECT_TRUE(saw_pop);
#endif
}

TEST_F(ProfTest, RunWorkloadByName) {
  WorkloadResult result;
  EXPECT_FALSE(run_workload("no_such_workload", result));
  const auto names = workload_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "micro_engine"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "fig11_production_run"),
            names.end());
  // Every workload folds its outputs into a nonzero digest, so `msprof
  // overhead` has something to compare with profiling on and off.
  ASSERT_TRUE(run_workload("fig11_step", result));
  EXPECT_NE(result.digest, 0u);
  WorkloadResult again;
  ASSERT_TRUE(run_workload("fig11_step", again));
  EXPECT_EQ(again.digest, result.digest);
}

// The Figure-11 pipeline's steady-step phase, checked op by op against an
// untraced run (the whole pipeline is pinned below).
TEST_F(ProfTest, SteadyStepTracesEachOpOnceAndFoldsThatResult) {
  const engine::JobConfig job = bench::megascale_175b(128, 64);
  ASSERT_EQ(engine::validate(job), "");
  const SteadyStep step = run_steady_step(job);
  ASSERT_FALSE(step.base.spans.empty());
  ASSERT_EQ(step.trace.size(), step.base.spans.size());
  for (std::size_t i = 0; i < step.trace.size(); ++i) {
    EXPECT_EQ(step.trace[i].name, step.base.spans[i].name) << i;
    EXPECT_EQ(step.trace[i].start, step.base.spans[i].start) << i;
    EXPECT_EQ(step.trace[i].end, step.base.spans[i].end) << i;
  }
  const engine::StragglerFold want = bench::run_with_cluster(job);
  EXPECT_EQ(step.fold.iteration_time, want.iteration_time);
  EXPECT_EQ(step.fold.mfu, want.mfu);
  EXPECT_EQ(step.fold.worst_factor, want.worst_factor);
  EXPECT_EQ(step.fold.slow_machines, want.slow_machines);
}

// The whole Figure-11 pipeline at full scale, held to the bench's gates:
// its digest, the ledger/ft ETTR closure, one trace span per op and the
// tree's observability overhead.
TEST_F(ProfTest, Fig11PipelineRunsWholeAndIsPinned) {
  const Fig11Result r = run_fig11_pipeline();
  EXPECT_EQ(r.digest, 0xdcdbde073b468e4cull);
  const double expected_ettr =
      r.report.effective_time_ratio - static_cast<double>(r.overlay_stall) /
                                          static_cast<double>(kFig11Duration);
  EXPECT_LE(std::abs(r.series.totals.ettr - expected_ettr), 0.01);
  EXPECT_EQ(r.step.trace.size(), r.step.base.spans.size());
  EXPECT_LT(r.flush.overhead_fraction, 0.01);
}

// ------------------------------------------------------------ msprof CLI

int run_cli(const std::vector<std::string>& args, std::string* out_text =
                                                      nullptr) {
  std::ostringstream out, err;
  const int rc = msprof_main(args, out, err);
  if (out_text != nullptr) *out_text = out.str() + err.str();
  return rc;
}

TEST_F(ProfTest, CliUsageAndList) {
  std::string text;
  EXPECT_EQ(run_cli({}, &text), 1);
  EXPECT_NE(text.find("msprof run"), std::string::npos);
  EXPECT_EQ(run_cli({"--help"}), 0);
  EXPECT_EQ(run_cli({"bogus"}), 1);
  EXPECT_EQ(run_cli({"list"}, &text), 0);
  EXPECT_NE(text.find("micro_engine"), std::string::npos);
}

TEST_F(ProfTest, CliRunReportDiffPipeline) {
  const std::string json_a = temp_path("prof_a.jsonl");
  const std::string trace = temp_path("prof_trace.json");
  const std::string prom = temp_path("prof.prom");
  std::string text;
  ASSERT_EQ(run_cli({"run", "micro_engine", "--json", json_a, "--trace",
                     trace, "--prom", prom, "--top", "5"},
                    &text),
            0)
      << text;
  EXPECT_NE(text.find("profile: micro_engine"), std::string::npos);
  EXPECT_NE(text.find("profile digest"), std::string::npos);
#if defined(MS_PROF_ENABLED) && MS_PROF_ENABLED
  EXPECT_NE(text.find("engine.pop"), std::string::npos);
#endif

  EXPECT_EQ(run_cli({"report", json_a}, &text), 0);
#if defined(MS_PROF_ENABLED) && MS_PROF_ENABLED
  EXPECT_NE(text.find("micro.fanout"), std::string::npos);
#endif

  EXPECT_EQ(run_cli({"diff", json_a, json_a}, &text), 0);
  EXPECT_NE(text.find("diff: micro_engine -> micro_engine"),
            std::string::npos);

  std::ifstream trace_in(trace);
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  EXPECT_NE(trace_text.str().find("megascale-sim (self)"),
            std::string::npos);
  std::ifstream prom_in(prom);
  std::stringstream prom_text;
  prom_text << prom_in.rdbuf();
  EXPECT_NE(prom_text.str().find("prof_events_total"), std::string::npos);
#if defined(MS_PROF_ENABLED) && MS_PROF_ENABLED
  EXPECT_NE(prom_text.str().find("prof_scope_self_seconds"),
            std::string::npos);
#endif
}

TEST_F(ProfTest, CliRejectsBadInputs) {
  std::string text;
  EXPECT_EQ(run_cli({"run", "no_such_workload"}, &text), 1);
  EXPECT_NE(text.find("unknown workload"), std::string::npos);
  EXPECT_EQ(run_cli({"report", temp_path("missing.jsonl")}, &text), 1);
  const std::string bad = temp_path("bad.jsonl");
  write_text(bad, "definitely not json\n");
  EXPECT_EQ(run_cli({"report", bad}, &text), 1);
  EXPECT_EQ(run_cli({"diff", bad}, &text), 1);
  write_text(bad, "{\"kind\":\"profile\"}\n{\"kind\":\"scope\"}\n");
  std::ostringstream bad_out, bad_err;
  EXPECT_EQ(msprof_main({"report", bad}, bad_out, bad_err), 1);
  EXPECT_EQ(bad_err.str(), "msprof: " + bad +
                               ": line 1: field \"workload\": missing, "
                               "expects a string\n");
  EXPECT_TRUE(bad_out.str().empty()) << bad_out.str();
  EXPECT_EQ(run_cli({"overhead", "--workload", "no_such"}, &text), 1);
  // Malformed arguments fail before any workload runs or file is read,
  // naming position and flag (`--budget x` used to read as budget 0).
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"overhead", "--budget", "x"}, "argument 2 (--budget)"},
      {{"report", "--top"}, "argument 2 (--top)"},
  };
  for (const auto& [args, named] : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(msprof_main(args, out, err), 1) << named;
    EXPECT_NE(err.str().find(named), std::string::npos) << err.str();
    EXPECT_TRUE(out.str().empty()) << out.str();
  }
}

}  // namespace
}  // namespace ms::prof
