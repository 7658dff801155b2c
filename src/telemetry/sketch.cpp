#include "telemetry/sketch.h"

#include <bit>
#include <cmath>
#include <cstdlib>

#include "check/digest.h"

namespace ms::telemetry {

void GaugeStat::add(double v) {
  sum += v;
  min = std::min(min, v);
  max = std::max(max, v);
  ++count;
}

void GaugeStat::merge(const GaugeStat& other) {
  if (other.count == 0) return;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
}

void SketchValue::merge(const SketchValue& other) {
  if (kind != other.kind) std::abort();  // one kind per name (registry law)
  switch (kind) {
    case MetricKind::kCounter: counter += other.counter; break;
    case MetricKind::kGauge: gauge.merge(other.gauge); break;
    case MetricKind::kHistogram: hist.merge(other.hist); break;
  }
}

const SketchSnapshot::SeriesMap& SketchSnapshot::series() const {
  static const SeriesMap kEmpty;
  return body_ ? *body_ : kEmpty;
}

SketchSnapshot::SeriesMap& SketchSnapshot::mutable_series() {
  if (!body_) {
    body_ = std::make_shared<SeriesMap>();
  } else if (body_.use_count() > 1) {
    body_ = std::make_shared<SeriesMap>(*body_);
  }
  return *body_;
}

SketchValue& SketchSnapshot::slot(const std::string& key, MetricKind kind) {
  encoded_bytes_cache_ = -1;  // handing out a mutable slot stales the memo
  auto [it, inserted] = mutable_series().try_emplace(key);
  if (inserted) {
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    std::abort();  // kind clash: same series key registered twice
  }
  return it->second;
}

void SketchSnapshot::add_counter(const std::string& key, double value) {
  slot(key, MetricKind::kCounter).counter += value;
}

void SketchSnapshot::add_gauge(const std::string& key, double value) {
  slot(key, MetricKind::kGauge).gauge.add(value);
}

void SketchSnapshot::add_histogram(const std::string& key,
                                   const HdrHistogram& hist) {
  slot(key, MetricKind::kHistogram).hist.merge(hist);
}

void SketchSnapshot::merge(const SketchSnapshot& other) {
  if (other.empty()) return;
  if (empty()) {
    body_ = other.body_;
    encoded_bytes_cache_ = other.encoded_bytes_cache_;
    return;
  }
  encoded_bytes_cache_ = -1;
  // Both maps iterate in key order, so one synchronized walk suffices:
  // amortized O(1) per series instead of an O(log n) string-keyed lookup
  // for every merged key. This is the hot loop of the aggregation tree
  // (12k leaves x hundreds of series per fig11 flush).
  SeriesMap& series = mutable_series();
  auto it = series.begin();
  for (const auto& [key, value] : other.series()) {
    while (it != series.end() && it->first < key) ++it;
    if (it != series.end() && it->first == key) {
      it->second.merge(value);  // aborts on kind clash (registry law)
      ++it;
    } else {
      it = series.emplace_hint(it, key, value);
      ++it;
    }
  }
}

Bytes SketchSnapshot::encoded_bytes() const {
  if (encoded_bytes_cache_ >= 0) return encoded_bytes_cache_;
  // Wire model: 16-byte frame header; per series the key string plus a
  // 1-byte kind tag and 2-byte length; counters are one f64, gauges the
  // 4-field statistic, histograms a 24-byte header plus a sparse
  // (varint bucket index ~ 2 bytes, count ~ 8 bytes) pair per non-empty
  // bucket plus under/overflow/total/sum/min/max in the header.
  Bytes total = 16;
  for (const auto& [key, value] : series()) {
    total += static_cast<Bytes>(key.size()) + 3;
    switch (value.kind) {
      case MetricKind::kCounter: total += 8; break;
      case MetricKind::kGauge: total += 32; break;
      case MetricKind::kHistogram:
        total += 24 + 10 * static_cast<Bytes>(
                          value.hist.nonzero_buckets().size());
        break;
    }
  }
  encoded_bytes_cache_ = total;
  return total;
}

namespace {

void fold_double(check::Digest& d, double v) {
  d.fold(std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t SketchSnapshot::digest() const {
  check::Digest d;
  for (const auto& [key, value] : series()) {
    d.fold(std::string_view(key));
    d.fold(static_cast<std::uint64_t>(value.kind));
    switch (value.kind) {
      case MetricKind::kCounter:
        fold_double(d, value.counter);
        break;
      case MetricKind::kGauge:
        fold_double(d, value.gauge.sum);
        fold_double(d, value.gauge.min);
        fold_double(d, value.gauge.max);
        d.fold(value.gauge.count);
        break;
      case MetricKind::kHistogram:
        d.fold(value.hist.total());
        fold_double(d, value.hist.sum());
        for (const auto& b : value.hist.nonzero_buckets()) {
          fold_double(d, b.lo);
          d.fold(b.count);
        }
        break;
    }
  }
  return d.value();
}

SketchSnapshot SketchSnapshot::from(const MetricsSnapshot& snapshot) {
  SketchSnapshot out;
  for (const auto& s : snapshot.samples) {
    const std::string key = s.name + encode_labels(s.labels);
    switch (s.kind) {
      case MetricKind::kCounter: out.add_counter(key, s.value); break;
      case MetricKind::kGauge: out.add_gauge(key, s.value); break;
      case MetricKind::kHistogram: out.add_histogram(key, s.hist); break;
    }
  }
  return out;
}

namespace {

bool close(double a, double b, double rel_tol) {
  if (a == b) return true;  // covers +/-inf sentinels in empty gauges
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= rel_tol * scale;
}

bool hist_same(const HdrHistogram& a, const HdrHistogram& b, double rel_tol) {
  if (a.total() != b.total()) return false;
  if (!close(a.sum(), b.sum(), rel_tol)) return false;
  if (a.total() > 0 && (a.min() != b.min() || a.max() != b.max())) {
    return false;
  }
  const auto ba = a.nonzero_buckets();
  const auto bb = b.nonzero_buckets();
  if (ba.size() != bb.size()) return false;
  for (std::size_t i = 0; i < ba.size(); ++i) {
    if (ba[i].lo != bb[i].lo || ba[i].count != bb[i].count) return false;
  }
  return true;
}

}  // namespace

bool approx_same(const SketchSnapshot& a, const SketchSnapshot& b,
                 double rel_tol) {
  if (a.series().size() != b.series().size()) return false;
  auto ia = a.series().begin();
  auto ib = b.series().begin();
  for (; ia != a.series().end(); ++ia, ++ib) {
    if (ia->first != ib->first) return false;
    const SketchValue& va = ia->second;
    const SketchValue& vb = ib->second;
    if (va.kind != vb.kind) return false;
    switch (va.kind) {
      case MetricKind::kCounter:
        if (!close(va.counter, vb.counter, rel_tol)) return false;
        break;
      case MetricKind::kGauge:
        if (va.gauge.count != vb.gauge.count ||
            !close(va.gauge.sum, vb.gauge.sum, rel_tol) ||
            !close(va.gauge.min, vb.gauge.min, rel_tol) ||
            !close(va.gauge.max, vb.gauge.max, rel_tol)) {
          return false;
        }
        break;
      case MetricKind::kHistogram:
        if (!hist_same(va.hist, vb.hist, rel_tol)) return false;
        break;
    }
  }
  return true;
}

}  // namespace ms::telemetry
