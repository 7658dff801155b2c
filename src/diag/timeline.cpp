#include "diag/timeline.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "core/json.h"

namespace ms::diag {

void TimelineTrace::add(TraceSpan span) { spans_.push_back(std::move(span)); }

std::vector<TraceSpan> TimelineTrace::rank_spans(int rank) const {
  std::vector<TraceSpan> result;
  for (const auto& s : spans_) {
    if (s.rank == rank) result.push_back(s);
  }
  std::sort(result.begin(), result.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              return a.start < b.start;
            });
  return result;
}

std::vector<TraceSpan> TimelineTrace::active_at(TimeNs t) const {
  std::vector<TraceSpan> result;
  for (const auto& s : spans_) {
    if (s.start <= t && t < s.end) result.push_back(s);
  }
  return result;
}

TimeNs TimelineTrace::idle_time(int rank, TimeNs from, TimeNs to) const {
  auto spans = rank_spans(rank);
  TimeNs busy = 0;
  TimeNs cursor = from;
  for (const auto& s : spans) {
    const TimeNs start = std::max(s.start, cursor);
    const TimeNs end = std::min(s.end, to);
    if (end > start) {
      busy += end - start;
      cursor = std::max(cursor, end);
    }
  }
  return (to - from) - busy;
}

std::string TimelineTrace::chrome_trace_json() const {
  std::string out = "{\"traceEvents\":[";
  for (const auto& s : spans_) {
    if (out.back() != '[') out += ',';
    json::append_complete_event(out, s.name, s.tag, s.rank, 0, s.start,
                                s.end - s.start, s.detail);
  }
  out += "]}";
  return out;
}

std::string TimelineTrace::render(TimeNs from, TimeNs to,
                                  std::size_t width) const {
  if (to <= from || width == 0) return "";
  std::map<int, std::string> lanes;
  for (const auto& s : spans_) {
    auto& lane = lanes[s.rank];
    if (lane.empty()) lane.assign(width, ' ');
  }
  auto glyph_of = [](const TraceSpan& s) {
    if (s.name == "fwd" || s.tag == "fwd") return 'F';
    if (s.name == "bwd" || s.tag == "bwd") return 'B';
    if (s.tag == "dp-comm") return 'd';
    if (s.tag == "pp-comm") return '-';
    if (s.tag == "optimizer") return 'O';
    return '#';
  };
  const double span_ns = static_cast<double>(to - from);
  for (const auto& s : spans_) {
    if (s.end <= from || s.start >= to) continue;
    auto& lane = lanes[s.rank];
    const auto lo = static_cast<std::size_t>(
        static_cast<double>(std::max(s.start, from) - from) / span_ns *
        static_cast<double>(width));
    auto hi = static_cast<std::size_t>(
        static_cast<double>(std::min(s.end, to) - from) / span_ns *
        static_cast<double>(width));
    hi = std::min(hi, width - 1);
    for (std::size_t i = lo; i <= hi; ++i) lane[i] = glyph_of(s);
  }

  std::ostringstream out;
  out << "time: " << format_duration(from) << " .. " << format_duration(to)
      << "   (F=fwd B=bwd -=pp-comm d=dp-comm O=optimizer)\n";
  for (const auto& [rank, lane] : lanes) {
    char head[24];
    std::snprintf(head, sizeof(head), "rank %3d |", rank);
    out << head << lane << "|\n";
  }
  return out.str();
}

}  // namespace ms::diag
