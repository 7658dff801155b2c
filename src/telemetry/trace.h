// Span sink for the engine's traced iterations (MegaScale §5.1).
//
// A Tracer is a thread-safe, append-only list of finished spans with
// caller-provided timestamps; `engine::simulate_iteration` records one
// span per op when `JobConfig::tracer` is set. Spans reuse
// diag::TraceSpan, so everything recorded here feeds directly into the §5
// diagnosis tools (timeline rendering, bubble accounting, Chrome-trace
// export) without a conversion layer.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "core/time.h"
#include "diag/timeline.h"

namespace ms::telemetry {

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Appends one finished span. Thread-safe.
  void record(diag::TraceSpan span);
  void record(int rank, const std::string& name, const std::string& tag,
              TimeNs start, TimeNs end, std::string detail);

  std::size_t size() const;
  std::vector<diag::TraceSpan> spans() const;  // copy, in record order

  /// Spans folded onto the unified multi-rank timeline (optionally only
  /// those whose tag passes `keep`).
  diag::TimelineTrace timeline() const;
  diag::TimelineTrace timeline(
      const std::function<bool(const diag::TraceSpan&)>& keep) const;

 private:
  mutable Mutex mu_;
  std::vector<diag::TraceSpan> spans_ MS_GUARDED_BY(mu_);
};

}  // namespace ms::telemetry
