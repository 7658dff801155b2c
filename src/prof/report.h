// Profile reports: aggregate capture -> ranked table / JSONL / diff /
// Perfetto self-trace.
//
// A ProfileReport is the plain-data result of one profiled workload run:
// wall time, engine event count, and per-scope stats
// ranked by *self* time (total minus nested scopes), which is the column
// that answers "where do the nanoseconds actually go". The JSONL artifact
// round-trips through parse_jsonl so `msprof diff` can compare two runs
// recorded days (or branches) apart.
//
// Digest discipline: digest() folds ONLY structural content — workload
// name plus (scope name, sample count) in name order. Wall-clock values
// never enter the digest, so two runs of the same deterministic workload
// digest equal even though their nanoseconds differ; a digest mismatch
// means the *shape* of the run changed (different scopes or counts), which
// for a deterministic simulator is a real regression signal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/wallclock.h"
#include "prof/profiler.h"

namespace ms::prof {

/// Per-scope aggregate, flattened for artifacts (quantiles precomputed).
struct ScopeStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};

struct ProfileReport {
  std::string workload;
  std::uint64_t wall_ns = 0;   // workload wall time (profiled run)
  std::uint64_t events = 0;    // engine events executed during the run
  std::vector<ScopeStats> scopes;  // ranked by self_ns, descending

  /// Fraction of wall time attributed to named scopes (sum of self time /
  /// wall). The fig11 acceptance bar is >= 0.9.
  double attributed_fraction() const;

  double events_per_sec() const;

  /// Structural FNV-1a digest: workload + (name, count) in name order.
  /// Never folds a wall-clock value — see the header comment.
  std::uint64_t digest() const;

  /// One JSON object per line: a "profile" header line, then one "scope"
  /// line per scope. Parseable by parse_jsonl.
  std::string to_jsonl() const;

  /// Ranked hot-spot table (top_k scopes by self time).
  std::string render(std::size_t top_k = 20) const;
};

/// Builds a report from the profiler's current cells (prof::snapshot()).
ProfileReport capture(const std::string& workload, WallNs wall_ns,
                      std::uint64_t events);

/// Parses a to_jsonl() artifact: the header line first, then the scopes.
/// Any other input fails with `*error` naming the line and field (see
/// json::parse_lines).
bool parse_jsonl(const std::string& text, ProfileReport& out,
                 std::string* error = nullptr);

/// Side-by-side comparison of two reports (scopes matched by name, ranked
/// by candidate self time): the `msprof diff` body.
std::string render_diff(const ProfileReport& base, const ProfileReport& cand,
                        std::size_t top_k = 20);

/// Chrome/Perfetto trace JSON of the self-trace ring: one complete ("X")
/// event per closed scope, pid = the simulator process, one track per
/// sampling thread. Load in ui.perfetto.dev.
std::string to_chrome_trace(const std::vector<TraceEvent>& events,
                            std::uint64_t dropped = 0);

}  // namespace ms::prof
