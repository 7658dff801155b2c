// Runtime metrics registry (MegaScale §5 "in-depth observability").
//
// The production system aggregates per-machine metrics at millisecond
// granularity into dashboards and the §4.2 anomaly pipeline. This is the
// repository's equivalent substrate: named counters, gauges and mergeable
// HDR-sketch histograms, each keyed by a label set ({rank=3, op=allgather}),
// registered once and updated lock-free (counters/gauges) or under a
// per-cell mutex (histograms). A snapshot copies every series out as plain
// data for the exporters (Prometheus text, JSONL, dashboards).
//
// Handles returned by counter()/gauge()/histogram() stay valid for the
// registry's lifetime (cells live in a std::deque), so hot paths resolve
// the (name, labels) pair once and keep the pointer.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "core/stats.h"
#include "core/thread_annotations.h"
#include "core/time.h"

namespace ms::telemetry {

/// Label set; canonicalized (sorted by key) on registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical rendering used as the series key: {a="1",b="x"} ("" if empty).
std::string encode_labels(const Labels& labels);

/// Monotonically increasing value (events, bytes, seconds of downtime).
class Counter {
 public:
  void add(double delta = 1.0) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time value (queue depth, MFU, pause fraction).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Distribution series backed by the HdrHistogram (same bucket boundaries,
/// sparse storage), so per-rank instances merge cheaply in aggregators.
class Histogram {
 public:
  void observe(double v) {
    MutexLock lock(mu_);
    hist_.add(v);
  }
  HdrHistogram snapshot() const {
    MutexLock lock(mu_);
    return hist_;
  }
 private:
  mutable Mutex mu_;
  HdrHistogram hist_ MS_GUARDED_BY(mu_);
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One exported series: plain data, safe to hold across registry mutation.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;   // counter / gauge
  HdrHistogram hist;    // histogram
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// First sample matching name (+ labels, when given); nullptr if absent.
  const MetricSample* find(const std::string& name) const;
  const MetricSample* find(const std::string& name, const Labels& labels) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers on first use, returns the existing cell afterwards. A name
  /// must keep one kind: re-registering it as a different kind aborts.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  /// Copies every series in registration order.
  MetricsSnapshot snapshot() const;

  std::size_t series_count() const;

 private:
  struct Cell {
    std::string name;
    Labels labels;
    MetricKind kind;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };
  Cell& cell(const std::string& name, const Labels& labels, MetricKind kind)
      MS_EXCLUDES(mu_);

  mutable Mutex mu_;
  // Stable addresses: handles outlive rehashing. The deque (not the cells
  // it holds — they are atomics / self-locked) is guarded by mu_.
  std::deque<Cell> cells_ MS_GUARDED_BY(mu_);
  std::unordered_map<std::string, Cell*> index_
      MS_GUARDED_BY(mu_);  // "name|labels" -> cell
};

}  // namespace ms::telemetry
