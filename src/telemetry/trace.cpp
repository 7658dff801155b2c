#include "telemetry/trace.h"

namespace ms::telemetry {

void Tracer::record(diag::TraceSpan span) {
  MutexLock lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::record(int rank, const std::string& name, const std::string& tag,
                    TimeNs start, TimeNs end, std::string detail) {
  record(diag::TraceSpan{rank, name, tag, start, end, std::move(detail)});
}

std::size_t Tracer::size() const {
  MutexLock lock(mu_);
  return spans_.size();
}

std::vector<diag::TraceSpan> Tracer::spans() const {
  MutexLock lock(mu_);
  return spans_;
}

diag::TimelineTrace Tracer::timeline() const {
  return timeline([](const diag::TraceSpan&) { return true; });
}

diag::TimelineTrace Tracer::timeline(
    const std::function<bool(const diag::TraceSpan&)>& keep) const {
  diag::TimelineTrace trace;
  MutexLock lock(mu_);
  for (const auto& s : spans_) {
    if (keep(s)) trace.add(s);
  }
  return trace;
}

}  // namespace ms::telemetry
