// Merge laws for the mergeable metric sketches (telemetry/sketch.h): the
// aggregation tree is only correct if counters/gauges/histograms merge
// commutatively and associatively, the wire-size model is deterministic,
// and a registry snapshot converts losslessly into mergeable form.
#include <gtest/gtest.h>

#include <string>

#include "core/stats.h"
#include "telemetry/metrics.h"
#include "telemetry/sketch.h"

namespace ms::telemetry {
namespace {

SketchSnapshot sample_snapshot(int salt) {
  SketchSnapshot s;
  s.add_counter("steps_total", 100.0 + salt);
  s.add_counter("faults_total{node=\"" + std::to_string(salt) + "\"}", 1.0);
  s.add_gauge("mfu", 0.5 + 0.01 * salt);
  HdrHistogram h;
  for (int i = 1; i <= 16; ++i) h.add(0.001 * i * (salt + 1));
  s.add_histogram("step_seconds", h);
  return s;
}

// ------------------------------------------------------------ gauge stat

TEST(GaugeStat, TracksSumMinMaxCount) {
  GaugeStat g;
  g.add(2.0);
  g.add(-1.0);
  g.add(5.0);
  EXPECT_DOUBLE_EQ(g.sum, 6.0);
  EXPECT_DOUBLE_EQ(g.min, -1.0);
  EXPECT_DOUBLE_EQ(g.max, 5.0);
  EXPECT_EQ(g.count, 3u);
  EXPECT_DOUBLE_EQ(g.mean(), 2.0);
}

TEST(GaugeStat, MergeMatchesCombinedAdds) {
  GaugeStat a, b, all;
  for (double v : {0.1, 0.9, 0.4}) { a.add(v); all.add(v); }
  for (double v : {0.3, 1.5}) { b.add(v); all.add(v); }
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.sum, all.sum);
  EXPECT_DOUBLE_EQ(a.min, all.min);
  EXPECT_DOUBLE_EQ(a.max, all.max);
  EXPECT_EQ(a.count, all.count);
}

TEST(GaugeStat, EmptyMergeIsIdentity) {
  GaugeStat a;
  a.add(0.7);
  GaugeStat empty;
  a.merge(empty);
  EXPECT_EQ(a.count, 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.7);
}

// ------------------------------------------------------------ merge laws

TEST(Sketch, MergeIsCommutative) {
  SketchSnapshot ab = sample_snapshot(1);
  ab.merge(sample_snapshot(2));
  SketchSnapshot ba = sample_snapshot(2);
  ba.merge(sample_snapshot(1));
  EXPECT_TRUE(approx_same(ab, ba));
  // Same series keys in both orders.
  EXPECT_EQ(ab.size(), ba.size());
}

TEST(Sketch, MergeIsAssociativeToRounding) {
  SketchSnapshot left = sample_snapshot(1);   // (A + B) + C
  left.merge(sample_snapshot(2));
  left.merge(sample_snapshot(3));
  SketchSnapshot bc = sample_snapshot(2);     // A + (B + C)
  bc.merge(sample_snapshot(3));
  SketchSnapshot right = sample_snapshot(1);
  right.merge(bc);
  EXPECT_TRUE(approx_same(left, right));
}

TEST(Sketch, CountersAdd) {
  SketchSnapshot a, b;
  a.add_counter("x", 3.0);
  b.add_counter("x", 4.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.series().at("x").counter, 7.0);
}

TEST(Sketch, DistinctLabelSetsStayDistinct) {
  SketchSnapshot a, b;
  a.add_counter("faults_total{node=\"0\"}", 1.0);
  b.add_counter("faults_total{node=\"1\"}", 2.0);
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(Sketch, HistogramBucketsAddElementWise) {
  HdrHistogram h1, h2;
  h1.add(0.010, 5);
  h2.add(0.010, 7);
  h2.add(1.000, 2);
  SketchSnapshot a, b;
  a.add_histogram("lat", h1);
  b.add_histogram("lat", h2);
  a.merge(b);
  const HdrHistogram& merged = a.series().at("lat").hist;
  EXPECT_EQ(merged.total(), 14u);
  EXPECT_NEAR(merged.quantile(0.5), 0.010, 0.010 * 0.08);
}

TEST(Sketch, ApproxSameDetectsDrift) {
  SketchSnapshot a = sample_snapshot(1);
  SketchSnapshot b = sample_snapshot(1);
  EXPECT_TRUE(approx_same(a, b));
  b.add_counter("steps_total", 1.0);
  EXPECT_FALSE(approx_same(a, b));
}

TEST(Sketch, DigestIsDeterministicAndOrderInsensitive) {
  SketchSnapshot a, b;
  a.add_counter("x", 1.0);
  a.add_counter("y", 2.0);
  b.add_counter("y", 2.0);
  b.add_counter("x", 1.0);
  EXPECT_EQ(a.digest(), b.digest());
  b.add_counter("x", 1.0);
  EXPECT_NE(a.digest(), b.digest());
}

// --------------------------------------------------------- copy-on-write

TEST(Sketch, CopiesShareOneBodyUntilWritten) {
  const SketchSnapshot a = sample_snapshot(1);
  const std::uint64_t a_digest = a.digest();
  SketchSnapshot b = a;
  EXPECT_EQ(&b.series(), &a.series());
  b.add_counter("steps_total", 1.0);
  EXPECT_NE(&b.series(), &a.series());
  EXPECT_EQ(a.digest(), a_digest);

  SketchSnapshot c;
  c.merge(a);  // an empty snapshot adopts the other's body
  EXPECT_EQ(&c.series(), &a.series());
  c.merge(a);  // the write clones first, so `a` is untouched
  EXPECT_NE(&c.series(), &a.series());
  EXPECT_EQ(a.digest(), a_digest);
  EXPECT_DOUBLE_EQ(c.series().at("steps_total").counter,
                   2 * a.series().at("steps_total").counter);
}

// ------------------------------------------------------- wire-size model

TEST(Sketch, EncodedBytesDeterministicAndMonotone) {
  SketchSnapshot a = sample_snapshot(1);
  SketchSnapshot b = sample_snapshot(1);
  EXPECT_EQ(a.encoded_bytes(), b.encoded_bytes());
  const Bytes before = a.encoded_bytes();
  a.add_counter("one_more_series_total", 1.0);
  EXPECT_GT(a.encoded_bytes(), before);
  EXPECT_EQ(SketchSnapshot{}.encoded_bytes(), 16);  // frame header only
}

TEST(Sketch, HistogramEncodingIsSparse) {
  HdrHistogram dense, sparse;
  for (int i = 1; i <= 64; ++i) dense.add(0.001 * i);
  sparse.add(0.5, 64);  // same total, one bucket
  SketchSnapshot d, s;
  d.add_histogram("lat", dense);
  s.add_histogram("lat", sparse);
  EXPECT_GT(d.encoded_bytes(), s.encoded_bytes());
}

// ---------------------------------------------------- registry interop

TEST(Sketch, FromRegistrySnapshotRoundTrips) {
  MetricsRegistry reg;
  reg.counter("steps_total").add(42.0);
  reg.gauge("mfu").set(0.61);
  reg.gauge("mfu", {{"stage", "3"}}).set(0.55);
  reg.histogram("step_seconds").observe(12.5);
  reg.histogram("step_seconds").observe(13.5);

  SketchSnapshot s = SketchSnapshot::from(reg.snapshot());
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.series().at("steps_total").counter, 42.0);
  const auto& g = s.series().at("mfu").gauge;
  EXPECT_EQ(g.count, 1u);
  EXPECT_DOUBLE_EQ(g.mean(), 0.61);
  EXPECT_EQ(s.series().at("step_seconds").hist.total(), 2u);
}

TEST(Sketch, TwoRanksSameSeriesMergeOntoOneEntry) {
  MetricsRegistry r0, r1;
  r0.counter("steps_total").add(10.0);
  r1.counter("steps_total").add(32.0);
  SketchSnapshot merged = SketchSnapshot::from(r0.snapshot());
  merged.merge(SketchSnapshot::from(r1.snapshot()));
  EXPECT_EQ(merged.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.series().at("steps_total").counter, 42.0);
}

}  // namespace
}  // namespace ms::telemetry
