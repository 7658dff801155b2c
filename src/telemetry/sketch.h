// Mergeable metric sketches (MegaScale §5: cluster-wide aggregation).
//
// The production system rolls per-machine metrics up to cluster dashboards
// at millisecond granularity. That only works because every metric the
// ranks export is a *mergeable sketch*: counters merge by addition, gauges
// by a (sum, min, max, count) statistic, and distributions by the
// HdrHistogram (same bucket boundaries, sparse storage), whose equal
// buckets add. This header is the wire model for that property: a
// SketchSnapshot is one node's (or one subtree's) metric state as plain
// mergeable data, with a deterministic encoded-size model so the
// aggregation tree (telemetry/aggregator.h) can charge its own traffic
// through the network cost models.
//
// Merge laws (pinned by tests/sketch_test.cpp): merge is commutative and
// associative on all integral state (counts, buckets, totals); floating
// sums are commutative but associative only to rounding, which is why the
// tree-vs-flat-merge oracle compares with approx_same() rather than
// digest equality.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "core/stats.h"
#include "core/units.h"
#include "telemetry/metrics.h"

namespace ms::telemetry {

/// Mergeable gauge aggregate: last-value gauges do not merge, so the tree
/// carries the (sum, min, max, count) statistic instead and reports the
/// mean/extremes at the root — what a cluster dashboard actually shows.
struct GaugeStat {
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::uint64_t count = 0;

  void add(double v);
  void merge(const GaugeStat& other);
  double mean() const {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
};

/// One mergeable series value, tagged by kind.
struct SketchValue {
  MetricKind kind = MetricKind::kCounter;
  double counter = 0;  // kCounter
  GaugeStat gauge;     // kGauge
  HdrHistogram hist;   // kHistogram

  /// Merges same-kind values; aborts on a kind clash (the registry
  /// guarantees one kind per name, so a clash is a wiring bug).
  void merge(const SketchValue& other);
};

/// One node's (or subtree's) metric state: series key -> mergeable value.
/// Keys are "name{labels}" via encode_labels, so two ranks exporting the
/// same series merge onto one entry.
///
/// Copy-on-write: copies share one series map until one of them is written
/// (every mutator clones a shared body first), so the 12k identical leaf
/// submissions of an aggregation tree cost one map, not 12k. A handle must
/// not be written while another thread uses that same handle.
class SketchSnapshot {
 public:
  using SeriesMap = std::map<std::string, SketchValue>;

  void add_counter(const std::string& key, double value);
  void add_gauge(const std::string& key, double value);
  void add_histogram(const std::string& key, const HdrHistogram& hist);

  /// Element-wise merge of every series in `other`. Merging into an empty
  /// snapshot adopts `other`'s body (and its encoded_bytes() memo).
  void merge(const SketchSnapshot& other);

  const SeriesMap& series() const;
  std::size_t size() const { return body_ ? body_->size() : 0; }
  bool empty() const { return size() == 0; }

  /// Deterministic wire-size model (bytes) of this snapshot: per-series key
  /// + tag overhead, fixed-size counter/gauge payloads, and a sparse
  /// (bucket index, count) encoding for histograms. This is the number the
  /// aggregation tree charges through the network cost model. Memoized:
  /// recomputed only after a mutation (the aggregation tree sizes the same
  /// unchanged snapshot at every level of every flush).
  Bytes encoded_bytes() const;

  /// Order-insensitive digest (series iterate in key order). Two snapshots
  /// built by the *same* merge topology digest equal; see approx_same()
  /// for comparing across topologies.
  std::uint64_t digest() const;

  /// Converts a registry snapshot into mergeable form.
  static SketchSnapshot from(const MetricsSnapshot& snapshot);

 private:
  SketchValue& slot(const std::string& key, MetricKind kind);
  /// The body, made unshared first (clones it when another copy holds it).
  SeriesMap& mutable_series();

  std::shared_ptr<SeriesMap> body_;  // null = no series
  /// encoded_bytes() memo; -1 = stale (any mutation invalidates).
  mutable Bytes encoded_bytes_cache_ = -1;
};

/// True when the two snapshots agree: exactly on every integral field
/// (kinds, counts, bucket vectors) and within `rel_tol` relative error on
/// floating sums. This is the flat-merge oracle's comparison: different
/// merge orders may differ in the last ulp of a double sum.
bool approx_same(const SketchSnapshot& a, const SketchSnapshot& b,
                 double rel_tol = 1e-9);

}  // namespace ms::telemetry
