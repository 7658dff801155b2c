// Exporters: one telemetry substrate, three wire formats.
//
//  * Prometheus text exposition — counters/gauges as single samples,
//    histograms as cumulative `_bucket{le=...}` series plus `_sum`/`_count`
//    (scrapeable by any Prometheus-compatible collector);
//  * JSONL event log — one self-describing JSON object per line, for both
//    metric samples and trace spans (the §4.2-style analytics feed);
//  * Chrome-trace JSON — spans routed through diag::TimelineTrace, so the
//    tracer and the standalone diagnosis tools emit the exact same format
//    (loadable in chrome://tracing / Perfetto).
#pragma once

#include <string>
#include <vector>

#include "diag/timeline.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ms::telemetry {

/// Prometheus text exposition format. Metric names are sanitized to
/// [a-zA-Z0-9_:]; label values are escaped per the spec.
std::string prometheus_text(const MetricsSnapshot& snapshot);

/// One JSON object per line:
///   {"type":"counter","name":...,"labels":{...},"value":...}
///   {"type":"histogram","name":...,"count":...,"sum":...,"p50":...,...}
std::string jsonl_metrics(const MetricsSnapshot& snapshot);

/// One JSON object per span:
///   {"type":"span","rank":...,"name":...,"tag":...,"start_ns":...,"end_ns":...}
std::string jsonl_spans(const std::vector<diag::TraceSpan>& spans);

/// Chrome "trace event format" via diag::TimelineTrace::chrome_trace_json.
std::string chrome_trace(const Tracer& tracer);

}  // namespace ms::telemetry
