// Bridge from the self-profiler into the telemetry substrate.
//
// Header-only on purpose: ms_prof sits below ms_sim and ms_net, so linking
// ms_telemetry would close a cycle; anything that already links telemetry
// can include this and export profiler state as ordinary registry series,
// which buys the Prometheus/JSONL wire formats and the mergeable
// SketchSnapshot form for free.
//
// Series emitted (all prefixed `prof_` so dashboards can split "simulator
// self-measurement" from "simulated cluster"):
//   prof_scope_self_seconds{scope=...}   counter  self time per scope
//   prof_scope_total_seconds{scope=...}  counter  inclusive time per scope
//   prof_scope_samples{scope=...}        counter  times the scope closed
//   prof_scope_seconds{scope=...}        histogram  sample durations
//   prof_events_total / prof_wall_seconds
#pragma once

#include <string>

#include "core/units.h"
#include "prof/profiler.h"
#include "prof/report.h"
#include "telemetry/metrics.h"
#include "telemetry/sketch.h"

namespace ms::prof {

/// Exports a captured report's scalar series into `registry`.
inline void export_profile(const ProfileReport& report,
                           telemetry::MetricsRegistry& registry) {
  registry.counter("prof_events_total").add(static_cast<double>(report.events));
  registry.counter("prof_wall_seconds")
      .add(wall_to_seconds(static_cast<WallNs>(report.wall_ns)));
  for (const ScopeStats& s : report.scopes) {
    const telemetry::Labels labels = {{"scope", s.name}};
    registry.counter("prof_scope_samples", labels)
        .add(static_cast<double>(s.count));
    registry.counter("prof_scope_self_seconds", labels)
        .add(wall_to_seconds(static_cast<WallNs>(s.self_ns)));
    registry.counter("prof_scope_total_seconds", labels)
        .add(wall_to_seconds(static_cast<WallNs>(s.total_ns)));
  }
}

/// Exports the live per-scope duration histograms in mergeable sketch
/// form (the registry's own Histogram cell has no bulk-merge entry point,
/// and the sketch is what aggregation trees ship anyway). Durations are
/// recorded in seconds to match every other `_seconds` series.
inline telemetry::SketchSnapshot profile_sketch() {
  constexpr double kNsPerSec = 1'000'000'000.0;
  telemetry::SketchSnapshot sketch;
  for (const ScopeSnapshot& s : snapshot()) {
    HdrHistogram seconds;
    for (const HdrHistogram::Bucket& b : s.hist_ns.nonzero_buckets()) {
      seconds.add(((b.lo + b.hi) / 2.0) / kNsPerSec, b.count);
    }
    sketch.add_histogram(
        "prof_scope_seconds{scope=\"" + s.name + "\"}", seconds);
  }
  return sketch;
}

}  // namespace ms::prof
