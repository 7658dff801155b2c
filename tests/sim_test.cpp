#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/engine.h"
#include "sim/graph.h"

namespace ms::sim {
namespace {

// ---------------------------------------------------------------- engine

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.at(seconds(3.0), [&] { order.push_back(3); });
  e.at(seconds(1.0), [&] { order.push_back(1); });
  e.at(seconds(2.0), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), seconds(3.0));
  EXPECT_EQ(e.executed(), 3u);
}

TEST(Engine, FifoWithinTimestamp) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.at(seconds(1.0), [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, AfterIsRelative) {
  Engine e;
  TimeNs fired = -1;
  e.at(seconds(5.0), [&] {
    e.after(seconds(2.0), [&] { fired = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired, seconds(7.0));
}

TEST(Engine, NegativeDelayClampedToNow) {
  Engine e;
  TimeNs fired = -1;
  e.at(seconds(1.0), [&] {
    e.after(-seconds(5.0), [&] { fired = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired, seconds(1.0));
}

TEST(Engine, RunUntilAdvancesClockToBound) {
  Engine e;
  int ran = 0;
  e.at(seconds(1.0), [&] { ++ran; });
  e.at(seconds(5.0), [&] { ++ran; });
  e.run_until(seconds(3.0));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.now(), seconds(3.0));
  e.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(e.now(), seconds(5.0));
}

TEST(Engine, RunUntilInclusiveOfBoundaryEvent) {
  Engine e;
  int ran = 0;
  e.at(seconds(3.0), [&] { ++ran; });
  e.run_until(seconds(3.0));
  EXPECT_EQ(ran, 1);
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.after(milliseconds(1.0), recurse);
  };
  e.at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), milliseconds(99.0));
}

TEST(Engine, RunUntilPastStopStillDrainsWhenResumed) {
  Engine e;
  e.at(seconds(1.0), [] {});
  e.run_until(seconds(0.5));  // stops at the bound before the event
  EXPECT_EQ(e.now(), seconds(0.5));
  EXPECT_EQ(e.executed(), 0u);
  e.run_until(seconds(1.0));  // event at the inclusive boundary fires
  EXPECT_EQ(e.executed(), 1u);
  EXPECT_EQ(e.now(), seconds(1.0));
}

TEST(Engine, QueueIntrospectionGetters) {
  Engine e;
  EXPECT_EQ(e.peak_queue_size(), 0u);
  e.at(seconds(1.0), [] {});
  e.at(seconds(2.0), [] {});
  e.at(seconds(3.0), [] {});
  EXPECT_EQ(e.peak_queue_size(), 3u);
  EXPECT_EQ(e.executed(), 0u);

  e.run();
  EXPECT_EQ(e.peak_queue_size(), 3u);  // high-water mark survives the drain
  EXPECT_EQ(e.executed(), 3u);
}

TEST(Engine, PeakQueueTracksMidRunScheduling) {
  Engine e;
  e.at(seconds(1.0), [&e] {
    for (int i = 0; i < 5; ++i) e.after(seconds(1.0), [] {});
  });
  EXPECT_EQ(e.peak_queue_size(), 1u);
  e.run();
  // The callback pushed 5 events while the queue held none: peak is 5.
  EXPECT_EQ(e.peak_queue_size(), 5u);
  EXPECT_EQ(e.executed(), 6u);
}

// ---------------------------------------------------------------- graph

TEST(Graph, SerialChainOnOneStream) {
  Engine e;
  GraphExecutor g(1);
  OpId a = g.add_op({.name = "a", .stream = 0, .duration = seconds(1.0)});
  OpId b = g.add_op({.name = "b", .stream = 0, .duration = seconds(2.0)});
  g.add_dep(a, b);
  const TimeNs makespan = g.run(e);
  EXPECT_EQ(makespan, seconds(3.0));
  EXPECT_EQ(g.record(a).start, 0);
  EXPECT_EQ(g.record(a).end, seconds(1.0));
  EXPECT_EQ(g.record(b).start, seconds(1.0));
  EXPECT_EQ(g.record(b).end, seconds(3.0));
}

TEST(Graph, IndependentOpsOnDistinctStreamsOverlap) {
  Engine e;
  GraphExecutor g(2);
  g.add_op({.name = "a", .stream = 0, .duration = seconds(2.0)});
  g.add_op({.name = "b", .stream = 1, .duration = seconds(2.0)});
  EXPECT_EQ(g.run(e), seconds(2.0));
}

TEST(Graph, StreamSerializesIndependentOps) {
  Engine e;
  GraphExecutor g(1);
  g.add_op({.name = "a", .stream = 0, .duration = seconds(2.0)});
  g.add_op({.name = "b", .stream = 0, .duration = seconds(2.0)});
  EXPECT_EQ(g.run(e), seconds(4.0));
}

TEST(Graph, DiamondDependency) {
  Engine e;
  GraphExecutor g(4);
  OpId src = g.add_op({.name = "src", .stream = 0, .duration = seconds(1.0)});
  OpId l = g.add_op({.name = "l", .stream = 1, .duration = seconds(2.0)});
  OpId r = g.add_op({.name = "r", .stream = 2, .duration = seconds(3.0)});
  OpId sink = g.add_op({.name = "sink", .stream = 3, .duration = seconds(1.0)});
  g.add_dep(src, l);
  g.add_dep(src, r);
  g.add_dep(l, sink);
  g.add_dep(r, sink);
  EXPECT_EQ(g.run(e), seconds(5.0));  // 1 + max(2,3) + 1
  EXPECT_EQ(g.record(sink).start, seconds(4.0));
}

TEST(Graph, PriorityBreaksReadyTies) {
  Engine e;
  GraphExecutor g(1);
  // Both ready at t=0 on the same stream; high priority goes first even
  // though it was added later.
  OpId low = g.add_op(
      {.name = "low", .stream = 0, .duration = seconds(1.0), .priority = 0});
  OpId high = g.add_op(
      {.name = "high", .stream = 0, .duration = seconds(1.0), .priority = 5});
  g.run(e);
  EXPECT_LT(g.record(high).start, g.record(low).start);
}

TEST(Graph, FifoWithinSamePriority) {
  Engine e;
  GraphExecutor g(1);
  OpId first = g.add_op({.name = "f", .stream = 0, .duration = seconds(1.0)});
  OpId second = g.add_op({.name = "s", .stream = 0, .duration = seconds(1.0)});
  g.run(e);
  EXPECT_LT(g.record(first).start, g.record(second).start);
}

TEST(Graph, StreamBusyAccounting) {
  Engine e;
  GraphExecutor g(2);
  OpId a = g.add_op({.name = "a", .stream = 0, .duration = seconds(1.0)});
  OpId b = g.add_op({.name = "b", .stream = 0, .duration = seconds(2.0)});
  g.add_op({.name = "c", .stream = 1, .duration = seconds(5.0)});
  g.add_dep(a, b);
  g.run(e);
  EXPECT_EQ(g.stream_busy(0), seconds(3.0));
  EXPECT_EQ(g.stream_busy(1), seconds(5.0));
}

TEST(Graph, CycleDetectedAsDeadlock) {
  Engine e;
  GraphExecutor g(2);
  OpId a = g.add_op({.name = "a", .stream = 0, .duration = seconds(1.0)});
  OpId b = g.add_op({.name = "b", .stream = 1, .duration = seconds(1.0)});
  g.add_dep(a, b);
  g.add_dep(b, a);
  EXPECT_THROW(g.run(e), std::logic_error);
}

TEST(Graph, EmptyGraphRunsInstantly) {
  Engine e;
  GraphExecutor g(1);
  EXPECT_EQ(g.run(e), 0);
}

TEST(Graph, RunTwiceThrows) {
  Engine e;
  GraphExecutor g(1);
  g.add_op({.name = "a", .stream = 0, .duration = 1});
  g.run(e);
  EXPECT_THROW(g.run(e), std::logic_error);
}

// Preconditions are checked in every build type, not only under assert().
TEST(Graph, MalformedOpsAndEdgesThrow) {
  GraphExecutor g(2);
  EXPECT_THROW(g.add_op({.name = "neg", .stream = -1}), std::invalid_argument);
  EXPECT_THROW(g.add_op({.name = "past", .stream = 2}), std::invalid_argument);
  const OpId a = g.add_op({.name = "a", .stream = 1});
  EXPECT_EQ(a, 0);
  EXPECT_THROW(g.add_dep(a, 1), std::invalid_argument);
  EXPECT_THROW(g.add_dep(kInvalidOp, a), std::invalid_argument);
  EXPECT_THROW(g.add_dep(a, a), std::invalid_argument);
}

TEST(Graph, AddAfterRunThrows) {
  Engine e;
  GraphExecutor g(1);
  const OpId a = g.add_op({.name = "a", .stream = 0, .duration = 1});
  const OpId b = g.add_op({.name = "b", .stream = 0, .duration = 1});
  g.run(e);
  EXPECT_THROW(g.add_op({.name = "late", .stream = 0}), std::logic_error);
  EXPECT_THROW(g.add_dep(a, b), std::logic_error);
}

// A 1F1B-like pattern: verify the executor models pipelined overlap the way
// the training engine will rely on.
TEST(Graph, TwoStagePipelineOverlap) {
  Engine e;
  GraphExecutor g(2);
  constexpr int kMicro = 4;
  const TimeNs f = seconds(1.0);
  std::vector<OpId> s0(kMicro), s1(kMicro);
  for (int m = 0; m < kMicro; ++m) {
    s0[static_cast<std::size_t>(m)] =
        g.add_op({.name = "s0", .stream = 0, .duration = f});
    s1[static_cast<std::size_t>(m)] =
        g.add_op({.name = "s1", .stream = 1, .duration = f});
    g.add_dep(s0[static_cast<std::size_t>(m)], s1[static_cast<std::size_t>(m)]);
  }
  // Pipeline: stage1 of microbatch m depends on stage0 of m; stage ops
  // serialize on their stream. Makespan = (kMicro + 1) * f.
  EXPECT_EQ(g.run(e), (kMicro + 1) * f);
}

}  // namespace
}  // namespace ms::sim
