#include "calib/replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "check/digest.h"
#include "core/json.h"
#include "core/table.h"
#include "diag/blame.h"
#include "telemetry/trace.h"

namespace ms::calib {

namespace {

/// All segment kinds, in enum order (deterministic share table).
constexpr diag::SegmentKind kAllCauses[] = {
    diag::SegmentKind::kCompute,       diag::SegmentKind::kStragglerWait,
    diag::SegmentKind::kPpComm,        diag::SegmentKind::kSlowLink,
    diag::SegmentKind::kDpComm,        diag::SegmentKind::kData,
    diag::SegmentKind::kOptimizer,     diag::SegmentKind::kBubble,
};

double share_of(const diag::StepDiagnosis& d, diag::SegmentKind kind) {
  const auto it = d.breakdown.find(kind);
  if (it == d.breakdown.end() || d.makespan <= 0) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(d.makespan);
}

std::int64_t quant(double v) {
  const double scaled = v * giga(1.0);
  if (!std::isfinite(scaled)) return -1;
  return std::llround(std::min(std::max(scaled, -9.0e18), 9.0e18));
}

std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

ReplayResult replay_fit(const std::vector<diag::TraceSpan>& spans,
                        const CalibrationReport& report,
                        const engine::JobConfig& base, double tolerance) {
  ReplayResult out;
  out.tolerance = tolerance;
  if (spans.empty()) {
    out.error = "empty trace: nothing to replay against";
    return out;
  }
  if (!report.ok) {
    out.error = "fit failed (" + report.error + "); replay skipped";
    return out;
  }
  const std::string cfg_err = engine::validate(base);
  if (!cfg_err.empty()) {
    out.error = "invalid base config: " + cfg_err;
    return out;
  }

  // Re-simulate with the fitted parameters plugged in.
  engine::JobConfig cfg = base;
  apply_fit(report, cfg);
  telemetry::Tracer tracer;
  cfg.tracer = &tracer;
  cfg.metrics = nullptr;
  const engine::IterationResult sim = engine::simulate_iteration(cfg);
  out.sim_step = sim.iteration_time;

  TimeNs t_min = spans.front().start, t_max = spans.front().end;
  for (const auto& s : spans) {
    t_min = std::min(t_min, s.start);
    t_max = std::max(t_max, s.end);
  }
  out.trace_step = t_max - t_min;
  if (out.trace_step <= 0) {
    out.error = "trace has zero makespan";
    return out;
  }

  out.rel_error =
      std::fabs(static_cast<double>(out.sim_step - out.trace_step)) /
      static_cast<double>(out.trace_step);
  out.within_tolerance = out.rel_error <= tolerance;

  // Blame tiling on both sides: a fit that cancels a compute overestimate
  // against a communication underestimate matches the total but not the
  // per-cause shares.
  const diag::StepDiagnosis trace_diag = diag::analyze_spans(spans);
  const diag::StepDiagnosis sim_diag = diag::analyze_spans(tracer.spans());
  for (diag::SegmentKind kind : kAllCauses) {
    CauseShare cs;
    cs.cause = diag::segment_kind_name(kind);
    cs.trace_share = share_of(trace_diag, kind);
    cs.sim_share = share_of(sim_diag, kind);
    if (cs.trace_share == 0.0 && cs.sim_share == 0.0) continue;
    out.max_share_delta = std::max(out.max_share_delta,
                                   std::fabs(cs.delta()));
    out.shares.push_back(std::move(cs));
  }
  out.ok = true;

  check::Digest d;
  d.fold(std::string_view("calib-replay"));
  d.fold(out.trace_step);
  d.fold(out.sim_step);
  d.fold(quant(out.rel_error));
  d.fold(static_cast<std::uint64_t>(out.within_tolerance ? 1 : 0));
  for (const auto& cs : out.shares) {
    d.fold(std::string_view(cs.cause));
    d.fold(quant(cs.trace_share));
    d.fold(quant(cs.sim_share));
  }
  out.digest = d.value();
  return out;
}

std::string replay_table(const ReplayResult& r) {
  if (!r.ok) return "replay failed: " + r.error + "\n";
  std::string out = "Replay validation\n";
  out += "  trace step " + format_duration(r.trace_step) + "  sim step " +
         format_duration(r.sim_step) + "  error " +
         Table::fmt_pct(r.rel_error, 3) + " (tolerance " +
         Table::fmt_pct(r.tolerance, 1) + ") -> " +
         (r.within_tolerance ? "OK" : "OUT OF TOLERANCE") + "\n";
  Table t({"cause", "trace share", "sim share", "delta"});
  for (const auto& cs : r.shares) {
    t.add_row({cs.cause, Table::fmt_pct(cs.trace_share, 1),
               Table::fmt_pct(cs.sim_share, 1),
               Table::fmt_pct(cs.delta(), 1)});
  }
  out += t.to_string();
  out += "max share delta " + Table::fmt_pct(r.max_share_delta, 2) + "\n";
  return out;
}

std::string replay_jsonl(const ReplayResult& r) {
  std::string out = "{\"record\":\"calib_replay\",\"ok\":";
  out += r.ok ? "true" : "false";
  if (!r.error.empty()) {
    out += ",\"error\":\"" + json::escape(r.error) + "\"";
  }
  out += ",\"trace_step_ns\":" + std::to_string(r.trace_step);
  out += ",\"sim_step_ns\":" + std::to_string(r.sim_step);
  out += ",\"rel_error\":" + fmt_g(r.rel_error);
  out += ",\"tolerance\":" + fmt_g(r.tolerance);
  out += ",\"within_tolerance\":";
  out += r.within_tolerance ? "true" : "false";
  out += ",\"max_share_delta\":" + fmt_g(r.max_share_delta);
  out += ",\"shares\":[";
  for (std::size_t i = 0; i < r.shares.size(); ++i) {
    const auto& cs = r.shares[i];
    if (i > 0) out += ',';
    out += "{\"cause\":\"" + json::escape(cs.cause) + "\",\"trace\":" +
           fmt_g(cs.trace_share) + ",\"sim\":" + fmt_g(cs.sim_share) + "}";
  }
  out += "],\"digest\":\"" + std::to_string(r.digest) + "\"}\n";
  return out;
}

}  // namespace ms::calib
