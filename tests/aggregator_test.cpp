// Hierarchical aggregation tree (telemetry/aggregator.h): the tree's
// flush must equal the flat-merge oracle (no series lost or double
// counted), level accounting must match the configured topology, and the
// traffic/latency numbers must behave like a real tree (bounded fan-in,
// sub-interval propagation, small overhead fraction).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/stats.h"
#include "telemetry/aggregator.h"
#include "telemetry/metrics.h"
#include "telemetry/sketch.h"

namespace ms::telemetry {
namespace {

AggTreeConfig small_tree() {
  AggTreeConfig cfg;
  cfg.ranks = 64;
  cfg.ranks_per_host = 8;
  cfg.hosts_per_pod = 4;
  return cfg;
}

SketchSnapshot rank_snapshot(int rank) {
  MetricsRegistry reg;
  reg.counter("steps_total").add(100.0);
  reg.counter("faults_total", {{"rank", std::to_string(rank)}}).add(1.0);
  reg.gauge("mfu").set(0.5 + 0.001 * rank);
  reg.histogram("step_seconds").observe(12.0 + 0.01 * rank);
  return SketchSnapshot::from(reg.snapshot());
}

TEST(Aggregator, TopologyMath) {
  AggregationTree tree(small_tree());
  EXPECT_EQ(tree.hosts(), 8);
  EXPECT_EQ(tree.pods(), 2);
}

TEST(Aggregator, FlushMatchesFlatMergeOracle) {
  AggregationTree tree(small_tree());
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  tree.flush();
  EXPECT_TRUE(approx_same(tree.root(), tree.flat_merge()));
  // 1 steps_total + 64 per-rank fault series + 1 mfu + 1 histogram.
  EXPECT_EQ(tree.root().size(), 67u);
  // The cluster view: every rank's counter summed, every gauge sampled.
  EXPECT_DOUBLE_EQ(tree.root().series().at("steps_total").counter, 6400.0);
  EXPECT_EQ(tree.root().series().at("mfu").gauge.count, 64u);
  EXPECT_EQ(tree.root().series().at("step_seconds").hist.total(), 64u);
}

TEST(Aggregator, LevelAccountingMatchesTopology) {
  AggregationTree tree(small_tree());
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  const FlushReport report = tree.flush();
  ASSERT_EQ(report.levels.size(), 3u);

  EXPECT_EQ(report.levels[0].level, "rank->host");
  EXPECT_EQ(report.levels[0].senders, 64);
  EXPECT_EQ(report.levels[0].receivers, 8);
  EXPECT_EQ(report.levels[0].fan_in, 8);

  EXPECT_EQ(report.levels[1].level, "host->pod");
  EXPECT_EQ(report.levels[1].senders, 8);
  EXPECT_EQ(report.levels[1].receivers, 2);
  EXPECT_EQ(report.levels[1].fan_in, 4);

  EXPECT_EQ(report.levels[2].level, "pod->cluster");
  EXPECT_EQ(report.levels[2].senders, 2);
  EXPECT_EQ(report.levels[2].receivers, 1);

  // rank->host bytes stay on-host; the upper two levels cross the fabric.
  EXPECT_EQ(report.intra_bytes, report.levels[0].bytes);
  EXPECT_EQ(report.network_bytes,
            report.levels[1].bytes + report.levels[2].bytes);
  EXPECT_GT(report.intra_bytes, 0);
  EXPECT_GT(report.network_bytes, 0);
  // Merged uplink sketches are far smaller than the raw per-rank sum.
  EXPECT_LT(report.network_bytes, report.intra_bytes);
}

TEST(Aggregator, PropagationFitsInsideFlushInterval) {
  AggTreeConfig cfg = small_tree();
  AggregationTree tree(cfg);
  for (int r = 0; r < cfg.ranks; ++r) tree.submit(r, rank_snapshot(r));
  const FlushReport report = tree.flush();
  EXPECT_GT(report.propagation_latency, 0);
  // Millisecond-granularity collection only works if a sample reaches the
  // root before the next flush.
  EXPECT_LT(report.propagation_latency, cfg.flush_interval);
  TimeNs stage_sum = 0;
  for (const auto& level : report.levels) stage_sum += level.stage_latency;
  EXPECT_EQ(report.propagation_latency, stage_sum);
}

TEST(Aggregator, OverheadFractionIsSmallAndPositive) {
  AggregationTree tree(small_tree());
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  const FlushReport report = tree.flush();
  EXPECT_GT(report.overhead_fraction, 0.0);
  EXPECT_LT(report.overhead_fraction, 0.01);  // the fig11 gate
  EXPECT_GT(report.per_host_uplink, 0.0);
}

TEST(Aggregator, NetworkBytesAccumulateAcrossFlushes) {
  AggregationTree tree(small_tree());
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  const Bytes first = tree.flush().network_bytes;
  EXPECT_EQ(tree.network_bytes_total(), first);
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  tree.flush();
  EXPECT_EQ(tree.network_bytes_total(), 2 * first);
}

TEST(Aggregator, ResubmitReplacesPendingSketch) {
  AggregationTree tree(small_tree());
  for (int r = 0; r < 64; ++r) tree.submit(r, rank_snapshot(r));
  // Rank 0 re-snapshots before the flush: latest wins, no double count.
  tree.submit(0, rank_snapshot(0));
  tree.flush();
  EXPECT_DOUBLE_EQ(tree.root().series().at("steps_total").counter, 6400.0);
}

TEST(Aggregator, SelfTelemetryCountsFlushes) {
  MetricsRegistry reg;
  AggTreeConfig cfg = small_tree();
  cfg.metrics = &reg;
  AggregationTree tree(cfg);
  for (int r = 0; r < cfg.ranks; ++r) tree.submit(r, rank_snapshot(r));
  tree.flush();
  tree.flush();
  EXPECT_DOUBLE_EQ(reg.counter("telemetry_agg_flushes_total").value(), 2.0);
  EXPECT_GT(reg.counter("telemetry_agg_bytes_total",
                        {{"level", "pod->cluster"}}).value(), 0.0);
}

TEST(Aggregator, RaggedLastHostAndPod) {
  AggTreeConfig cfg;
  cfg.ranks = 13;  // 2 hosts of 8 (one ragged), 1 pod
  cfg.ranks_per_host = 8;
  cfg.hosts_per_pod = 4;
  AggregationTree tree(cfg);
  EXPECT_EQ(tree.hosts(), 2);
  EXPECT_EQ(tree.pods(), 1);
  for (int r = 0; r < cfg.ranks; ++r) tree.submit(r, rank_snapshot(r));
  tree.flush();
  EXPECT_TRUE(approx_same(tree.root(), tree.flat_merge()));
  EXPECT_DOUBLE_EQ(tree.root().series().at("steps_total").counter, 1300.0);
}

// Preconditions hold in release builds too (no assert): a zero or negative
// fan-in would divide by zero, and an out-of-range rank would write past
// the leaves.
TEST(Aggregator, MalformedConfigAndSubmitThrow) {
  for (const int bad : {0, -1}) {
    AggTreeConfig cfg = small_tree();
    cfg.ranks = bad;
    EXPECT_THROW(AggregationTree{cfg}, std::invalid_argument);
    cfg = small_tree();
    cfg.ranks_per_host = bad;
    EXPECT_THROW(AggregationTree{cfg}, std::invalid_argument);
    cfg = small_tree();
    cfg.hosts_per_pod = bad;
    EXPECT_THROW(AggregationTree{cfg}, std::invalid_argument);
  }
  AggregationTree tree(small_tree());
  EXPECT_THROW(tree.submit(-1, rank_snapshot(0)), std::invalid_argument);
  EXPECT_THROW(tree.submit(small_tree().ranks, rank_snapshot(0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace ms::telemetry
