#include <gtest/gtest.h>

#include "core/json.h"
#include "diag/heatmap.h"
#include "diag/timeline.h"
#include "diag/viz3d.h"

namespace ms::diag {
namespace {

// --------------------------------------------------------------- heatmap

TEST(Heatmap, MeansPerCell) {
  PerformanceHeatmap hm;
  hm.add_sample(0, "fwd", 1.0);
  hm.add_sample(0, "fwd", 3.0);
  hm.add_sample(0, "bwd", 4.0);
  EXPECT_DOUBLE_EQ(hm.mean(0, "fwd"), 2.0);
  EXPECT_DOUBLE_EQ(hm.mean(0, "bwd"), 4.0);
  EXPECT_DOUBLE_EQ(hm.mean(1, "fwd"), 0.0);
  EXPECT_EQ(hm.machine_count(), 1);
}

TEST(Heatmap, DetectsTenPercentStraggler) {
  // The §6.3 case: specific hosts take ~10% longer on the same forward
  // computation.
  PerformanceHeatmap hm;
  for (int machine = 0; machine < 64; ++machine) {
    const double factor = machine == 17 ? 1.10 : 1.0;
    for (int step = 0; step < 20; ++step) {
      hm.add_sample(machine, "fwd", 0.010 * factor);
      hm.add_sample(machine, "bwd", 0.020 * factor);
    }
  }
  const auto outliers = hm.outliers(0.05);
  ASSERT_EQ(outliers.size(), 1u);
  EXPECT_EQ(outliers[0], 17);
}

TEST(Heatmap, NoOutliersOnUniformCluster) {
  PerformanceHeatmap hm;
  for (int machine = 0; machine < 16; ++machine) {
    hm.add_sample(machine, "fwd", 0.010);
  }
  EXPECT_TRUE(hm.outliers(0.05).empty());
}

TEST(Heatmap, ThresholdControlsSensitivity) {
  PerformanceHeatmap hm;
  for (int machine = 0; machine < 16; ++machine) {
    hm.add_sample(machine, "fwd", machine == 3 ? 0.0104 : 0.010);
  }
  EXPECT_TRUE(hm.outliers(0.05).empty());       // 4% < 5%
  EXPECT_EQ(hm.outliers(0.02).size(), 1u);      // 4% > 2%
}

TEST(Heatmap, AsciiMarksStragglers) {
  PerformanceHeatmap hm;
  for (int machine = 0; machine < 8; ++machine) {
    hm.add_sample(machine, "fwd", machine == 5 ? 0.012 : 0.010);
  }
  const std::string art = hm.ascii(0.05);
  EXPECT_NE(art.find("STRAGGLER"), std::string::npos);
  EXPECT_NE(art.find("fwd"), std::string::npos);
}

// -------------------------------------------------------------- timeline

TEST(Timeline, RankSpansSorted) {
  TimelineTrace trace;
  trace.add({.rank = 0, .name = "bwd", .tag = "bwd", .start = seconds(2.0),
             .end = seconds(3.0)});
  trace.add({.rank = 0, .name = "fwd", .tag = "fwd", .start = seconds(1.0),
             .end = seconds(2.0)});
  auto spans = trace.rank_spans(0);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "fwd");
  EXPECT_EQ(spans[1].name, "bwd");
}

TEST(Timeline, ActiveAtFindsConcurrentWork) {
  TimelineTrace trace;
  trace.add({.rank = 0, .name = "fwd", .tag = "fwd", .start = 0,
             .end = seconds(2.0)});
  trace.add({.rank = 1, .name = "fwd", .tag = "fwd", .start = seconds(1.0),
             .end = seconds(3.0)});
  auto active = trace.active_at(seconds(1.5));
  EXPECT_EQ(active.size(), 2u);
  active = trace.active_at(seconds(2.5));
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].rank, 1);
}

TEST(Timeline, IdleTimeIsBubble) {
  TimelineTrace trace;
  trace.add({.rank = 0, .name = "fwd", .tag = "fwd", .start = 0,
             .end = seconds(1.0)});
  trace.add({.rank = 0, .name = "bwd", .tag = "bwd", .start = seconds(3.0),
             .end = seconds(4.0)});
  EXPECT_EQ(trace.idle_time(0, 0, seconds(4.0)), seconds(2.0));
}

TEST(Timeline, ActiveAtIsHalfOpenAndSkipsZeroLengthSpans) {
  TimelineTrace trace;
  trace.add({.rank = 0, .name = "fwd", .tag = "fwd", .start = seconds(1.0),
             .end = seconds(2.0)});
  trace.add({.rank = 1, .name = "marker", .tag = "fwd", .start = seconds(1.0),
             .end = seconds(1.0)});  // zero-length: never active
  const auto at_start = trace.active_at(seconds(1.0));
  ASSERT_EQ(at_start.size(), 1u);
  EXPECT_EQ(at_start[0].rank, 0);
  EXPECT_TRUE(trace.active_at(seconds(2.0)).empty());  // end is exclusive
  EXPECT_TRUE(trace.active_at(seconds(0.5)).empty());
}

TEST(Timeline, IdleTimeBoundaryTouchingSpansLeaveNoGap) {
  TimelineTrace trace;
  trace.add({.rank = 0, .name = "fwd", .tag = "fwd", .start = 0,
             .end = seconds(1.0)});
  trace.add({.rank = 0, .name = "bwd", .tag = "bwd", .start = seconds(1.0),
             .end = seconds(2.0)});
  EXPECT_EQ(trace.idle_time(0, 0, seconds(2.0)), 0);
}

TEST(Timeline, IdleTimeOverlappingSpansNotDoubleCounted) {
  TimelineTrace trace;
  trace.add({.rank = 0, .name = "fwd", .tag = "fwd", .start = 0,
             .end = seconds(2.0)});
  trace.add({.rank = 0, .name = "send", .tag = "pp-comm",
             .start = seconds(1.0), .end = seconds(3.0)});
  // Union of busy time is [0s, 3s); idle over [0s, 4s) is exactly 1s.
  EXPECT_EQ(trace.idle_time(0, 0, seconds(4.0)), seconds(1.0));
  // A span nested inside another adds nothing.
  trace.add({.rank = 0, .name = "tp", .tag = "tp-comm",
             .start = seconds(0.5), .end = seconds(1.5)});
  EXPECT_EQ(trace.idle_time(0, 0, seconds(4.0)), seconds(1.0));
}

TEST(Timeline, IdleTimeZeroLengthSpansContributeNothing) {
  TimelineTrace trace;
  trace.add({.rank = 0, .name = "marker", .tag = "fwd", .start = seconds(1.0),
             .end = seconds(1.0)});
  EXPECT_EQ(trace.idle_time(0, 0, seconds(2.0)), seconds(2.0));
}

TEST(Timeline, IdleTimeOfUnknownRankIsWholeWindow) {
  TimelineTrace trace;
  trace.add({.rank = 0, .name = "fwd", .tag = "fwd", .start = 0,
             .end = seconds(1.0)});
  EXPECT_EQ(trace.idle_time(7, 0, seconds(3.0)), seconds(3.0));
  // Spans clipped to the window only count their covered part (0.5s busy).
  EXPECT_EQ(trace.idle_time(0, seconds(0.5), seconds(3.0)), seconds(2.0));
}

TEST(Timeline, ChromeTraceEscapesNamesAndKeepsSubMicrosecondSpans) {
  TimelineTrace trace;
  trace.add({.rank = 0, .name = "fwd \"q\"\\n", .tag = "a\tb",
             .start = 0, .end = 500, .detail = "s=0 c=1\nnote=\"x\""});
  json::Value v;
  ASSERT_TRUE(json::parse(trace.chrome_trace_json(), v));
  const auto& ev = v.at("traceEvents")[0];
  EXPECT_EQ(ev.at("name").str, "fwd \"q\"\\n");
  EXPECT_EQ(ev.at("cat").str, "a\tb");
  EXPECT_EQ(ev.at("args").at("detail").str, "s=0 c=1\nnote=\"x\"");
  EXPECT_DOUBLE_EQ(ev.at("dur").number, 0.5);  // 500 ns = 0.5 us, not 0
}

TEST(Timeline, RenderShowsLanesAndGlyphs) {
  TimelineTrace trace;
  trace.add({.rank = 0, .name = "fwd", .tag = "fwd", .start = 0,
             .end = seconds(1.0)});
  trace.add({.rank = 1, .name = "bwd", .tag = "bwd", .start = seconds(1.0),
             .end = seconds(2.0)});
  const std::string art = trace.render(0, seconds(2.0), 40);
  EXPECT_NE(art.find("rank   0"), std::string::npos);
  EXPECT_NE(art.find('F'), std::string::npos);
  EXPECT_NE(art.find('B'), std::string::npos);
}

TEST(Timeline, ChromeTraceJsonParses) {
  TimelineTrace trace;
  trace.add({.rank = 0, .name = "fwd-0", .tag = "fwd",
             .start = microseconds(10.0), .end = microseconds(30.0)});
  trace.add({.rank = 1, .name = "bwd-0", .tag = "bwd",
             .start = microseconds(30.0), .end = microseconds(70.0)});
  json::Value v;
  ASSERT_TRUE(json::parse(trace.chrome_trace_json(), v));
  ASSERT_TRUE(v.is_object());
  const auto& events = v.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("ph").str, "X");
  EXPECT_EQ(events[0].at("name").str, "fwd-0");
  EXPECT_EQ(events[0].at("cat").str, "fwd");
  EXPECT_DOUBLE_EQ(events[0].at("ts").number, 10.0);
  EXPECT_DOUBLE_EQ(events[0].at("dur").number, 20.0);
  EXPECT_DOUBLE_EQ(events[1].at("pid").number, 1.0);
}

TEST(Timeline, ChromeTraceRoundTripsCountAndOrder) {
  // Spans come back 1:1 and in insertion order, so the export is a faithful
  // serialization of the trace (the telemetry exporters rely on this).
  TimelineTrace trace;
  constexpr int kSpans = 25;
  for (int i = 0; i < kSpans; ++i) {
    trace.add({.rank = i % 4, .name = "op-" + std::to_string(i), .tag = "fwd",
               .start = i * microseconds(5.0),
               .end = i * microseconds(5.0) + microseconds(3.0)});
  }
  json::Value v;
  ASSERT_TRUE(json::parse(trace.chrome_trace_json(), v));
  const auto& events = v.at("traceEvents");
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kSpans));
  for (int i = 0; i < kSpans; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].at("name").str,
              "op-" + std::to_string(i));
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].at("ts").number,
                     i * 5.0);
  }
}

TEST(Timeline, ChromeTraceEmptyTraceIsValidJson) {
  TimelineTrace trace;
  json::Value v;
  ASSERT_TRUE(json::parse(trace.chrome_trace_json(), v));
  EXPECT_EQ(v.at("traceEvents").size(), 0u);
}

// ----------------------------------------------------------------- viz3d

parallel::ParallelConfig viz_cfg() {
  return parallel::ParallelConfig{.tp = 2, .pp = 2, .dp = 2};
}

TEST(Viz3d, DescribeListsAllGroups) {
  Parallel3DVisualizer viz(viz_cfg());
  const std::string desc = viz.describe(0);
  EXPECT_NE(desc.find("tensor group"), std::string::npos);
  EXPECT_NE(desc.find("data group"), std::string::npos);
  EXPECT_NE(desc.find("pipeline group"), std::string::npos);
  EXPECT_NE(desc.find("send activations"), std::string::npos);
}

TEST(Viz3d, LocatesHungRankFromSilence) {
  // World of 8; rank 5 hangs. Everyone else logs a blocked op.
  Parallel3DVisualizer viz(viz_cfg());
  std::map<int, std::string> logs;
  for (int r = 0; r < 8; ++r) {
    if (r != 5) logs[r] = "dp-allgather";
  }
  auto suspects = viz.locate_hung_ranks(logs);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0], 5);
}

TEST(Viz3d, NoSuspectsWhenEveryoneLogs) {
  Parallel3DVisualizer viz(viz_cfg());
  std::map<int, std::string> logs;
  for (int r = 0; r < 8; ++r) logs[r] = "pp-recv";
  EXPECT_TRUE(viz.locate_hung_ranks(logs).empty());
}

TEST(Viz3d, MultipleHungRanksAllFound) {
  Parallel3DVisualizer viz(viz_cfg());
  std::map<int, std::string> logs;
  for (int r = 0; r < 8; ++r) {
    if (r != 2 && r != 6) logs[r] = "tp-allgather";
  }
  auto suspects = viz.locate_hung_ranks(logs);
  EXPECT_EQ(suspects, (std::vector<int>{2, 6}));
}

}  // namespace
}  // namespace ms::diag
