// External-trace ingestion for the calibration frontend (ROADMAP item 5).
//
// `msdiag calibrate` accepts two artifact families and normalizes both into
// the repo's span model (diag::TraceSpan):
//  * the repo's own span JSONL (telemetry::jsonl_spans);
//  * Chrome-trace / Kineto-style JSON ("trace event format"): either a bare
//    event array or an object with a "traceEvents" array.
//
// Kineto emits a long tail of quirks the strict repo formats never produce,
// and ingestion tolerates all of them instead of failing the load:
//  * string pids/tids ("python 4021", "stream 7") next to numeric ones;
//  * complete ("X") events with fractional-µs timestamps or a missing dur;
//  * metadata ("M"), instant ("i"/"I"), counter ("C") and flow events mixed
//    into the stream — skipped, but counted;
//  * begin/end ("B"/"E") pairs instead of complete events;
//  * per-event `args` objects — flattened into the span's `k=v` detail
//    string so diag::SpanAttrs and the calibration classifier see them.
// An event whose ts/dur is not a finite number in [0, 4.6e15] µs, or whose
// numeric pid/tid is not an integer in [0, INT_MAX], is skipped with a
// warning rather than cast; the repo's own artifacts fail the load instead.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "diag/timeline.h"

namespace ms::calib {

struct IngestResult {
  std::vector<diag::TraceSpan> spans;
  /// Events tolerated but not converted into spans (metadata, counters,
  /// instants, unmatched begin/end halves, X events the span model cannot
  /// represent).
  std::size_t skipped_events = 0;
  /// Human-readable notes about tolerated quirks (first few occurrences).
  std::vector<std::string> warnings;
};

/// Detected on content, not file extension: a leading '{' with a "type"
/// line per row is span JSONL; '[' or an object with "traceEvents" is a
/// Chrome/Kineto trace.
enum class TraceFormat { kSpanJsonl, kChromeTrace, kUnknown };
TraceFormat detect_trace_format(const std::string& text);

/// Parses `text` in either format. Returns false (with `error` set) when
/// the artifact is structurally unreadable or, for span JSONL, when a span
/// field is missing, mistyped or out of range (the repo's own artifacts
/// fail the whole load). Chrome-trace events are quirk-tolerant instead: an
/// event whose ts, dur, pid, tid, ph, name or cat is mistyped or out of
/// range is skipped, counted and reported through IngestResult.
bool ingest_trace(const std::string& text, IngestResult& out,
                  std::string& error);

/// Convenience: read + ingest a file; errors are prefixed with `path`.
bool ingest_trace_file(const std::string& path, IngestResult& out,
                       std::string& error);

}  // namespace ms::calib
