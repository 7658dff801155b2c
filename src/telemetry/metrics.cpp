#include "telemetry/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace ms::telemetry {

namespace {
Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}
}  // namespace

std::string encode_labels(const Labels& labels) {
  if (labels.empty()) return "";
  const Labels canon = canonical(labels);
  std::string out = "{";
  for (std::size_t i = 0; i < canon.size(); ++i) {
    if (i) out += ',';
    out += canon[i].first;
    out += "=\"";
    out += canon[i].second;
    out += '"';
  }
  out += '}';
  return out;
}

const MetricSample* MetricsSnapshot::find(const std::string& name) const {
  for (const auto& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const MetricSample* MetricsSnapshot::find(const std::string& name,
                                          const Labels& labels) const {
  const Labels want = canonical(labels);
  for (const auto& s : samples) {
    if (s.name == name && s.labels == want) return &s;
  }
  return nullptr;
}

MetricsRegistry::Cell& MetricsRegistry::cell(const std::string& name,
                                             const Labels& labels,
                                             MetricKind kind) {
  Labels canon = canonical(labels);
  const std::string key = name + '|' + encode_labels(canon);
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    if (it->second->kind != kind) {
      std::fprintf(stderr,
                   "[ERROR] metric '%s' re-registered as a different kind\n",
                   name.c_str());
      std::abort();
    }
    return *it->second;
  }
  // Cell holds atomics and a mutex, so it is built in place, not moved.
  Cell& c = cells_.emplace_back();
  c.name = name;
  c.labels = std::move(canon);
  c.kind = kind;
  index_.emplace(key, &c);
  return c;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  return cell(name, labels, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  return cell(name, labels, MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels) {
  return cell(name, labels, MetricKind::kHistogram).histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.samples.reserve(cells_.size());
  for (const auto& c : cells_) {
    MetricSample s;
    s.name = c.name;
    s.labels = c.labels;
    s.kind = c.kind;
    switch (c.kind) {
      case MetricKind::kCounter: s.value = c.counter.value(); break;
      case MetricKind::kGauge: s.value = c.gauge.value(); break;
      case MetricKind::kHistogram: s.hist = c.histogram.snapshot(); break;
    }
    snap.samples.push_back(std::move(s));
  }
  // Surface histogram range overflow as a first-class counter: a sample
  // past kRangeHi still counts toward total() but lands in no sized
  // bucket, so tail quantiles clamp silently. One synthetic series per
  // overflowing histogram cell makes that loss observable downstream
  // (Prometheus, dashboard) instead of a quiet lie.
  for (const auto& c : cells_) {
    if (c.kind != MetricKind::kHistogram) continue;
    const HdrHistogram h = c.histogram.snapshot();
    if (h.overflow_count() == 0) continue;
    MetricSample o;
    o.name = "telemetry_sketch_overflow_total";
    o.labels = c.labels;
    o.labels.emplace_back("metric", c.name);
    std::sort(o.labels.begin(), o.labels.end());
    o.kind = MetricKind::kCounter;
    o.value = static_cast<double>(h.overflow_count());
    snap.samples.push_back(std::move(o));
  }
  return snap;
}

std::size_t MetricsRegistry::series_count() const {
  MutexLock lock(mu_);
  return cells_.size();
}

}  // namespace ms::telemetry
