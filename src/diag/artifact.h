// Trace-artifact IO for the diagnosis toolchain.
//
// Runs persist their evidence as JSONL: one span per line (the same
// format telemetry::jsonl_spans emits) or a flight-recorder dump. msdiag
// and the tests load artifacts through these helpers, so a trace captured
// by a bench, a chaos campaign, or the nightly CI job all round-trip into
// the analyzer without conversion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "diag/timeline.h"

namespace ms::diag {

/// Writes `content` to `path`, creating parent directories. Returns false
/// on IO failure.
bool write_text_file(const std::string& path, const std::string& content);

/// Largest file read_text_file accepts: 256 MiB, about 200x the largest
/// artifact any bench writes (the 1.4 MB fig11_step_trace.json). The cap
/// turns an endless or huge input (/dev/zero, a runaway pipe) into an
/// error instead of an out-of-memory abort.
inline constexpr std::uintmax_t kMaxTextFileBytes = std::uintmax_t{256} << 20;

/// Reads the whole file. Returns false when it cannot be read or holds
/// more than kMaxTextFileBytes; `error` (if non-null) then receives
/// "cannot read" or "larger than N bytes". A regular file's size is
/// checked before reading; any other file is read in chunks and reading
/// stops one byte past the cap.
bool read_text_file(const std::string& path, std::string& out,
                    std::string* error = nullptr);

/// Parses a span JSONL artifact. Lines of other types (metrics mixed into
/// the same export) are skipped. Malformed JSON, or a span field that is
/// missing, mistyped or out of range, fails the load with `*error` naming
/// the line (see json::parse_lines).
bool parse_trace_jsonl(const std::string& text, std::vector<TraceSpan>& out,
                       std::string* error = nullptr);

}  // namespace ms::diag
