#include "core/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace ms {

void RunningStat::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double Percentiles::quantile(double q) const {
  assert(!values_.empty());
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

// --------------------------------------------------------- HdrHistogram

std::size_t HdrHistogram::bucket_index(double x) {
  const double pos = std::log10(x / kRangeLo) * kBucketsPerDecade;
  // Clamp: floating rounding near the range edges must not step outside.
  constexpr std::size_t kLast =
      static_cast<std::size_t>(kBucketsPerDecade) * kDecades - 1;
  return std::min(static_cast<std::size_t>(std::max(pos, 0.0)), kLast);
}

double HdrHistogram::bucket_lo(std::size_t i) {
  return kRangeLo *
         std::pow(10.0, static_cast<double>(i) / kBucketsPerDecade);
}

void HdrHistogram::add(double x, std::uint64_t count) {
  if (count == 0) return;
  total_ += count;
  sum_ += x * static_cast<double>(count);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  if (!(x >= kRangeLo)) {  // includes NaN, <= 0 and tiny values
    underflow_ += count;
  } else if (x >= kRangeHi) {
    overflow_ += count;
  } else {
    const std::size_t i = bucket_index(x);
    const auto it = std::lower_bound(
        cells_.begin(), cells_.end(), i,
        [](const Cell& c, std::size_t index) { return c.index < index; });
    if (it != cells_.end() && it->index == i) {
      it->count += count;
    } else {
      cells_.insert(it, Cell{i, count});
    }
  }
}

void HdrHistogram::merge(const HdrHistogram& other) {
  // Two-pointer merge of the sorted cells: equal buckets add, the rest
  // interleave in index order.
  if (cells_.empty()) {
    cells_ = other.cells_;
  } else if (!other.cells_.empty()) {
    std::vector<Cell> merged;
    merged.reserve(cells_.size() + other.cells_.size());
    auto a = cells_.begin();
    auto b = other.cells_.begin();
    while (a != cells_.end() && b != other.cells_.end()) {
      if (a->index < b->index) {
        merged.push_back(*a++);
      } else if (b->index < a->index) {
        merged.push_back(*b++);
      } else {
        merged.push_back({a->index, a->count + b->count});
        ++a;
        ++b;
      }
    }
    merged.insert(merged.end(), a, cells_.end());
    merged.insert(merged.end(), b, other.cells_.end());
    cells_ = std::move(merged);
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double HdrHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double seen = static_cast<double>(underflow_);
  if (target <= seen && underflow_ > 0) return min_;
  for (const Cell& c : cells_) {
    const double next = seen + static_cast<double>(c.count);
    if (target <= next) {
      const double frac = (target - seen) / static_cast<double>(c.count);
      const double lo = bucket_lo(c.index), hi = bucket_lo(c.index + 1);
      return std::clamp(lo + frac * (hi - lo), min_, max_);
    }
    seen = next;
  }
  return max_;
}

std::vector<HdrHistogram::Bucket> HdrHistogram::nonzero_buckets() const {
  std::vector<Bucket> out;
  if (underflow_ > 0) out.push_back({0.0, kRangeLo, underflow_});
  for (const Cell& c : cells_) {
    out.push_back({bucket_lo(c.index), bucket_lo(c.index + 1), c.count});
  }
  if (overflow_ > 0) {
    out.push_back({kRangeHi, std::numeric_limits<double>::infinity(),
                   overflow_});
  }
  return out;
}

double Series::tail_mean(std::size_t k) const {
  if (y.empty()) return 0.0;
  k = std::min(k, y.size());
  double s = 0.0;
  for (std::size_t i = y.size() - k; i < y.size(); ++i) s += y[i];
  return s / static_cast<double>(k);
}

std::string ascii_chart(const std::vector<Series>& series, std::size_t width,
                        std::size_t height) {
  static const char kGlyphs[] = {'*', 'o', '+', 'x', '@', '%', '~', '^'};
  double xmin = 0, xmax = 1, ymin = 0, ymax = 1;
  bool any = false;
  for (const auto& s : series) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (!std::isfinite(s.x[i]) || !std::isfinite(s.y[i])) continue;
      if (!any) {
        xmin = xmax = s.x[i];
        ymin = ymax = s.y[i];
        any = true;
      } else {
        xmin = std::min(xmin, s.x[i]);
        xmax = std::max(xmax, s.x[i]);
        ymin = std::min(ymin, s.y[i]);
        ymax = std::max(ymax, s.y[i]);
      }
    }
  }
  if (!any) return "(empty chart)\n";
  if (xmax == xmin) xmax = xmin + 1;
  if (ymax == ymin) ymax = ymin + 1;

  std::vector<std::string> grid(height, std::string(width, ' '));
  for (std::size_t si = 0; si < series.size(); ++si) {
    const char glyph = kGlyphs[si % sizeof(kGlyphs)];
    const auto& s = series[si];
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (!std::isfinite(s.x[i]) || !std::isfinite(s.y[i])) continue;
      auto cx = static_cast<std::size_t>((s.x[i] - xmin) / (xmax - xmin) *
                                         static_cast<double>(width - 1));
      auto cy = static_cast<std::size_t>((s.y[i] - ymin) / (ymax - ymin) *
                                         static_cast<double>(height - 1));
      grid[height - 1 - cy][cx] = glyph;
    }
  }

  std::ostringstream out;
  char label[64];
  std::snprintf(label, sizeof(label), "%10.4g ", ymax);
  out << label << '|' << grid[0] << '\n';
  for (std::size_t r = 1; r + 1 < height; ++r) {
    out << std::string(11, ' ') << '|' << grid[r] << '\n';
  }
  std::snprintf(label, sizeof(label), "%10.4g ", ymin);
  out << label << '|' << grid[height - 1] << '\n';
  out << std::string(12, ' ') << std::string(width, '-') << '\n';
  char xlabel[96];
  std::snprintf(xlabel, sizeof(xlabel), "%12s%-10.4g%*.4g\n", "", xmin,
                static_cast<int>(width) - 10, xmax);
  out << xlabel;
  for (std::size_t si = 0; si < series.size(); ++si) {
    out << "  " << kGlyphs[si % sizeof(kGlyphs)] << " = " << series[si].name;
  }
  out << '\n';
  return out.str();
}

}  // namespace ms
