#include "calib/fit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "calib/lsq.h"
#include "check/digest.h"
#include "core/json.h"
#include "core/table.h"
#include "parallel/overlap.h"
#include "parallel/zero.h"

namespace ms::calib {

namespace {

constexpr std::size_t kNumOpClasses = 5;

/// Per-op-class durations of the engine's chunk assembly (replicates
/// engine/job.cpp's composition: layers_per_chunk x fold_tp(layer, tp_comm),
/// logits head on the last chunk, ZeRO-2 optimizer shard).
struct ClassTimes {
  TimeNs t[kNumOpClasses] = {0, 0, 0, 0, 0};
};

/// Evaluates the chunk durations with the base profile's inverse
/// efficiencies scaled by (xg, xa, xm): gemm_efficiency /= xg, attention
/// efficiencies /= xa, hbm_bw /= xm. With tp == 1 (or tp_overlap off) the
/// result is exactly linear in (xg, xa, xm); chunked TP overlap folds a
/// max(), for which the probe yields a secant linearization around the
/// base operating point.
ClassTimes eval_classes(const engine::JobConfig& cfg, double xg, double xa,
                        double xm) {
  model::OperatorProfile prof = cfg.ops;
  prof.gemm_efficiency /= xg;
  prof.attention_efficiency /= xa;
  prof.flash_attention2_efficiency /= xa;
  collective::GpuSpec gpu = cfg.cluster.gpu;
  gpu.hbm_bw /= xm;

  const auto& par = cfg.par;
  const int layers_per_chunk = cfg.model.layers / (par.pp * par.vpp);
  const std::int64_t micro_tokens = cfg.model.seq_len;
  const std::int64_t elem_tokens =
      par.sequence_parallel ? micro_tokens / par.tp : micro_tokens;

  const model::OpCostModel cost(cfg.model, prof, gpu);
  const parallel::Zero2Sharding zero(model::params_count(cfg.model), par);

  // Per-layer TP/SP communication is paid to the *base* cluster — it is a
  // fixed additive term here (the intra-node alpha-beta parameters are
  // fitted from collective spans, not folded compute).
  TimeNs tp_comm_layer = 0;
  if (par.tp > 1) {
    const collective::CollectiveModel coll(cfg.cluster,
                                           cfg.network_efficiency);
    const Bytes act_bytes = micro_tokens * cfg.model.hidden * 2;
    const int tp_comms = cfg.model.parallel_block ? 1 : 2;
    tp_comm_layer =
        tp_comms *
        (coll.all_gather(act_bytes, par.tp, collective::Domain::kIntraNode) +
         coll.reduce_scatter(act_bytes, par.tp,
                             collective::Domain::kIntraNode));
  }
  auto fold_tp = [&](TimeNs compute) -> TimeNs {
    if (tp_comm_layer == 0) return compute;
    if (cfg.overlap.tp_overlap) {
      return parallel::chunked_overlap(compute, tp_comm_layer,
                                       cfg.overlap.tp_overlap_chunks)
          .total;
    }
    return compute + tp_comm_layer;
  };

  TimeNs fwd = layers_per_chunk *
               fold_tp(cost.fwd_layer(micro_tokens, elem_tokens, par.tp));
  TimeNs bwd = layers_per_chunk *
               fold_tp(cost.bwd_layer(micro_tokens, elem_tokens, par.tp));
  if (cfg.full_recompute) bwd += fwd;
  const TimeNs logits = cost.fwd_logits(micro_tokens, par.tp);

  ClassTimes out;
  out.t[static_cast<int>(OpClass::kFwd)] = fwd;
  out.t[static_cast<int>(OpClass::kBwd)] = bwd;
  out.t[static_cast<int>(OpClass::kFwdHead)] = fwd + logits;
  out.t[static_cast<int>(OpClass::kBwdHead)] = bwd + 2 * logits;
  out.t[static_cast<int>(OpClass::kOptimizer)] =
      cost.optimizer_step(zero.optimizer_shard_params());
  return out;
}

/// Linear features of one op class: duration ~= g*xg + a*xa + m*xm + f,
/// where x* are inverse-efficiency multipliers relative to the base
/// profile. Extracted by probing at doubled multipliers — the features can
/// never drift from OpCostModel because they *are* OpCostModel.
struct OpFeatures {
  double g = 0, a = 0, m = 0, f = 0;
};

void extract_features(const engine::JobConfig& cfg,
                      OpFeatures (&feat)[kNumOpClasses]) {
  const ClassTimes t0 = eval_classes(cfg, 1.0, 1.0, 1.0);
  const ClassTimes tg = eval_classes(cfg, 2.0, 1.0, 1.0);
  const ClassTimes ta = eval_classes(cfg, 1.0, 2.0, 1.0);
  const ClassTimes tm = eval_classes(cfg, 1.0, 1.0, 2.0);
  for (std::size_t k = 0; k < kNumOpClasses; ++k) {
    const double base = static_cast<double>(t0.t[k]);
    feat[k].g = static_cast<double>(tg.t[k]) - base;
    feat[k].a = static_cast<double>(ta.t[k]) - base;
    feat[k].m = static_cast<double>(tm.t[k]) - base;
    feat[k].f = base - feat[k].g - feat[k].a - feat[k].m;
  }
}

double span_duration(const diag::TraceSpan& s) {
  return static_cast<double>(s.end - s.start);
}

/// Relative weight: rows scaled by 1/observed turn the solve into relative
/// least squares, so microsecond optimizer spans are not drowned out by
/// millisecond chunk spans.
double row_weight(double observed) { return 1.0 / std::max(observed, 1.0); }

std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  return '"' + json::escape(s) + '"';
}

const char* domain_name(collective::Domain d) {
  return d == collective::Domain::kIntraNode ? "intra" : "inter";
}

/// Quantize a double for digest folding (fixed point, ppb resolution).
std::int64_t quant(double v) {
  const double scaled = v * giga(1.0);
  if (!std::isfinite(scaled)) return -1;
  return std::llround(std::min(std::max(scaled, -9.0e18), 9.0e18));
}

}  // namespace

CalibrationReport fit_trace(const std::vector<diag::TraceSpan>& spans,
                            const engine::JobConfig& base) {
  CalibrationReport report;
  report.spans_total = spans.size();
  if (spans.empty()) {
    report.error = "empty trace: no spans to fit";
    return report;
  }
  const std::string cfg_err = engine::validate(base);
  if (!cfg_err.empty()) {
    report.error = "invalid base config: " + cfg_err;
    return report;
  }

  TimeNs t_min = spans.front().start, t_max = spans.front().end;
  for (const auto& s : spans) {
    t_min = std::min(t_min, s.start);
    t_max = std::max(t_max, s.end);
  }
  report.trace_makespan = t_max - t_min;

  const Classification cls = classify_spans(spans);
  OpFeatures feat[kNumOpClasses];
  extract_features(base, feat);

  // ---- operator fit: solve for (xg, xa, xm) ----
  std::vector<std::vector<double>> op_rows;
  std::vector<double> op_y;
  for (const auto& c : cls.spans) {
    if (c.kind != ClassifiedSpan::Kind::kOperator) continue;
    const OpFeatures& fk = feat[static_cast<int>(c.op)];
    const double obs = span_duration(spans[c.span]);
    const double w = row_weight(obs);
    op_rows.push_back({fk.g * w, fk.a * w, fk.m * w});
    op_y.push_back((obs - fk.f) * w);
  }
  report.ops.samples = static_cast<int>(op_rows.size());
  if (op_rows.empty()) {
    report.ops.note = "no operator spans";
  } else {
    const LsqResult sol = solve_least_squares(op_rows, op_y);
    if (!sol.ok) {
      report.ops.note = sol.error;
    } else {
      report.ops.fitted = true;
      report.ops.degenerate = sol.degenerate;
      report.ops.ridge_used = sol.ridge_used;
      // x* are inverse-efficiency multipliers; convert back to absolute
      // efficiencies relative to the base profile. Non-positive multipliers
      // (heavily degenerate systems) are clamped away from zero so the
      // report never divides by zero.
      const double xg = std::max(sol.x[0], 1.0e-6);
      const double xa = std::max(sol.x[1], 1.0e-6);
      const double xm = std::max(sol.x[2], 1.0e-6);
      report.ops.gemm_efficiency = base.ops.gemm_efficiency / xg;
      report.ops.attention_efficiency =
          base.ops.effective_attention_efficiency() / xa;
      report.ops.memory_efficiency = 1.0 / xm;
      if (sol.degenerate) {
        report.ops.note =
            "rank " + std::to_string(sol.rank) +
            "/3 system (too few distinct op classes); ridge-stabilized";
      }
    }
  }

  // ---- collective fit: per-domain (alpha, 1/bandwidth) ----
  std::map<collective::Domain, std::pair<std::vector<std::vector<double>>,
                                         std::vector<double>>>
      coll_rows;
  for (const auto& c : cls.spans) {
    if (c.kind != ClassifiedSpan::Kind::kCollective) continue;
    const CollDesignRow row = coll_design_row(c);
    const double obs = span_duration(spans[c.span]);
    const double w = row_weight(obs);
    auto& bucket = coll_rows[c.domain];
    bucket.first.push_back({row.lat_coeff * w, row.byte_coeff * w});
    bucket.second.push_back(obs * w);
  }
  for (auto& [domain, rows] : coll_rows) {
    CollectiveFit fit;
    fit.domain = domain;
    fit.samples = static_cast<int>(rows.first.size());
    const LsqResult sol = solve_least_squares(rows.first, rows.second);
    if (!sol.ok) {
      fit.note = sol.error;
    } else {
      fit.degenerate = sol.degenerate;
      fit.ridge_used = sol.ridge_used;
      const double alpha_ns = std::max(sol.x[0], 0.0);
      const double inv_bw = sol.x[1];  // ns per byte
      if (inv_bw <= 0) {
        fit.note = "non-physical bandwidth (collinear sizes?)";
      } else {
        fit.fitted = true;
        fit.alpha = static_cast<TimeNs>(std::llround(alpha_ns));
        fit.bandwidth = static_cast<double>(kNsPerSec) / inv_bw;
        if (sol.degenerate) {
          fit.note = "rank " + std::to_string(sol.rank) +
                     "/2 system (one collective shape); ridge-stabilized";
        }
      }
    }
    report.coll.push_back(fit);
  }

  // ---- residuals per class ----
  auto modeled_duration = [&](const ClassifiedSpan& c) -> double {
    if (c.kind == ClassifiedSpan::Kind::kOperator && report.ops.fitted) {
      const OpFeatures& fk = feat[static_cast<int>(c.op)];
      const double xg = base.ops.gemm_efficiency /
                        std::max(report.ops.gemm_efficiency, 1.0e-9);
      const double xa = base.ops.effective_attention_efficiency() /
                        std::max(report.ops.attention_efficiency, 1.0e-9);
      const double xm = 1.0 / std::max(report.ops.memory_efficiency, 1.0e-9);
      return fk.g * xg + fk.a * xa + fk.m * xm + fk.f;
    }
    if (c.kind == ClassifiedSpan::Kind::kCollective) {
      for (const auto& fit : report.coll) {
        if (fit.domain != c.domain || !fit.fitted) continue;
        const CollDesignRow row = coll_design_row(c);
        return row.lat_coeff * static_cast<double>(fit.alpha) +
               row.byte_coeff * static_cast<double>(kNsPerSec) /
                   fit.bandwidth;
      }
    }
    return -1.0;  // not modeled
  };

  struct Acc {
    int samples = 0;
    double observed = 0, modeled = 0, sum_sq = 0;
    double worst = -1.0;
    std::string worst_span;
    bool fitted = false;
  };
  std::map<std::string, Acc> by_class;
  double pooled_sq = 0;
  std::size_t pooled_n = 0;
  for (const auto& c : cls.spans) {
    const diag::TraceSpan& s = spans[c.span];
    Acc& acc = by_class[c.label];
    ++acc.samples;
    const double obs = span_duration(s);
    acc.observed += obs;
    const double model = modeled_duration(c);
    if (model < 0) continue;
    acc.fitted = true;
    acc.modeled += model;
    const double rel = std::fabs(model - obs) / std::max(obs, 1.0);
    acc.sum_sq += rel * rel;
    pooled_sq += rel * rel;
    ++pooled_n;
    ++report.spans_fitted;
    if (rel > acc.worst) {
      acc.worst = rel;
      acc.worst_span = s.name + "@" + std::to_string(s.rank) +
                       " start=" + format_duration(s.start - t_min);
    }
  }
  for (const auto& [label, acc] : by_class) {
    ClassResidual r;
    r.cls = label;
    r.samples = acc.samples;
    r.observed_total = static_cast<TimeNs>(std::llround(acc.observed));
    r.modeled_total = static_cast<TimeNs>(std::llround(acc.modeled));
    r.fitted = acc.fitted;
    if (acc.fitted && acc.samples > 0) {
      r.rel_rms = std::sqrt(acc.sum_sq / acc.samples);
      r.worst_rel = std::max(acc.worst, 0.0);
      r.worst_span = acc.worst_span;
    }
    report.residuals.push_back(std::move(r));
  }
  report.spans_other = report.spans_total - report.spans_fitted;
  if (pooled_n > 0) {
    report.fit_rel_rms = std::sqrt(pooled_sq / static_cast<double>(pooled_n));
  }

  bool any_coll = false;
  for (const auto& f : report.coll) any_coll |= f.fitted;
  report.ok = report.ops.fitted || any_coll;
  if (!report.ok) {
    report.error = "no fittable spans in trace (operators: " +
                   std::string(report.ops.note.empty() ? "none"
                                                       : report.ops.note) +
                   ")";
  }

  // ---- determinism digest ----
  // Folds only *fitted* content (parameters + fitted-class residuals), so
  // cosmetic trace differences — profiler metadata, counters, wrapper
  // spans — do not perturb it: a Kineto re-export of the same step must
  // digest identically to the span JSONL it came from.
  check::Digest d;
  d.fold(std::string_view("calib-fit"));
  d.fold(static_cast<std::uint64_t>(report.spans_fitted));
  d.fold(static_cast<std::uint64_t>(report.ops.fitted ? 1 : 0));
  d.fold(quant(report.ops.gemm_efficiency));
  d.fold(quant(report.ops.attention_efficiency));
  d.fold(quant(report.ops.memory_efficiency));
  for (const auto& f : report.coll) {
    d.fold(std::string_view(domain_name(f.domain)));
    d.fold(static_cast<std::uint64_t>(f.fitted ? 1 : 0));
    d.fold(f.alpha);
    d.fold(static_cast<std::int64_t>(std::llround(f.bandwidth)));
  }
  for (const auto& r : report.residuals) {
    if (!r.fitted) continue;
    d.fold(std::string_view(r.cls));
    d.fold(static_cast<std::int64_t>(r.samples));
    d.fold(quant(r.rel_rms));
  }
  report.digest = d.value();
  return report;
}

void apply_fit(const CalibrationReport& report, engine::JobConfig& cfg) {
  if (report.ops.fitted && !report.ops.degenerate) {
    cfg.ops.gemm_efficiency = report.ops.gemm_efficiency;
    // Set both attention fields so the fitted value wins regardless of the
    // flash_attention2 flag.
    cfg.ops.attention_efficiency = report.ops.attention_efficiency;
    cfg.ops.flash_attention2_efficiency = report.ops.attention_efficiency;
    cfg.cluster.gpu.hbm_bw *= report.ops.memory_efficiency;
  }
  for (const auto& f : report.coll) {
    if (!f.fitted || f.degenerate) continue;
    if (f.domain == collective::Domain::kInterNode) {
      cfg.cluster.net_latency = f.alpha;
      const double eff = f.bandwidth / cfg.cluster.nic_bw;
      if (eff <= 1.0) {
        cfg.network_efficiency = std::max(eff, 1.0e-3);
      } else {
        // Fitted fabric outruns the nominal NIC: raise the nominal and run
        // at full efficiency rather than clamping information away.
        cfg.cluster.nic_bw = f.bandwidth;
        cfg.network_efficiency = 1.0;
      }
    } else {
      cfg.cluster.nvlink_latency = f.alpha;
      cfg.cluster.nvlink_bw = f.bandwidth;
    }
  }
}

std::string report_table(const CalibrationReport& report) {
  std::string out;
  if (!report.ok) {
    out += "calibration failed: " + report.error + "\n";
    if (report.spans_total > 0) {
      out += "  spans: " + std::to_string(report.spans_total) + " total\n";
    }
    return out;
  }

  Table params({"parameter", "value", "samples", "note"});
  const auto& ops = report.ops;
  if (ops.fitted) {
    const std::string note =
        ops.note.empty() ? (ops.ridge_used ? "ridge" : "") : ops.note;
    params.add_row({"gemm_efficiency", Table::fmt(ops.gemm_efficiency, 4),
                    Table::fmt_int(ops.samples), note});
    params.add_row({"attention_efficiency",
                    Table::fmt(ops.attention_efficiency, 4), "", ""});
    params.add_row({"memory_efficiency",
                    Table::fmt(ops.memory_efficiency, 4), "", ""});
  } else {
    params.add_row({"operators", "unfitted", Table::fmt_int(ops.samples),
                    ops.note});
  }
  for (const auto& f : report.coll) {
    const std::string dom = domain_name(f.domain);
    if (f.fitted) {
      params.add_row({"alpha/" + dom, format_duration(f.alpha),
                      Table::fmt_int(f.samples), f.note});
      params.add_row({"bandwidth/" + dom,
                      Table::fmt(to_gBps(f.bandwidth), 2) + " GB/s", "", ""});
    } else {
      params.add_row({"collectives/" + dom, "unfitted",
                      Table::fmt_int(f.samples), f.note});
    }
  }
  out += "Fitted parameters\n" + params.to_string();

  Table res({"class", "samples", "observed", "modeled", "rel RMS", "worst"});
  for (const auto& r : report.residuals) {
    res.add_row({r.cls, Table::fmt_int(r.samples),
                 format_duration(r.observed_total),
                 r.fitted ? format_duration(r.modeled_total) : "-",
                 r.fitted ? Table::fmt_pct(r.rel_rms, 2) : "-",
                 r.fitted ? Table::fmt_pct(r.worst_rel, 2) + " " + r.worst_span
                          : "(not fitted)"});
  }
  out += "\nPer-class residuals\n" + res.to_string();
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(report.digest));
  out += "\nfit rel-RMS " + Table::fmt_pct(report.fit_rel_rms, 3) + " over " +
         std::to_string(report.spans_fitted) + "/" +
         std::to_string(report.spans_total) + " spans; digest " + digest_hex +
         "\n";
  return out;
}

std::string report_jsonl(const CalibrationReport& report) {
  std::string out = "{\"record\":\"calib_params\",\"ok\":";
  out += report.ok ? "true" : "false";
  if (!report.error.empty()) out += ",\"error\":" + json_str(report.error);
  out += ",\"spans_total\":" + std::to_string(report.spans_total);
  out += ",\"spans_fitted\":" + std::to_string(report.spans_fitted);
  out += ",\"fit_rel_rms\":" + fmt_g(report.fit_rel_rms);
  out += ",\"trace_makespan_ns\":" + std::to_string(report.trace_makespan);
  out += ",\"ops\":{\"fitted\":";
  out += report.ops.fitted ? "true" : "false";
  out += ",\"degenerate\":";
  out += report.ops.degenerate ? "true" : "false";
  out += ",\"samples\":" + std::to_string(report.ops.samples);
  out += ",\"gemm_efficiency\":" + fmt_g(report.ops.gemm_efficiency);
  out += ",\"attention_efficiency\":" + fmt_g(report.ops.attention_efficiency);
  out += ",\"memory_efficiency\":" + fmt_g(report.ops.memory_efficiency);
  if (!report.ops.note.empty()) out += ",\"note\":" + json_str(report.ops.note);
  out += "},\"collectives\":[";
  for (std::size_t i = 0; i < report.coll.size(); ++i) {
    const auto& f = report.coll[i];
    if (i > 0) out += ',';
    out += "{\"domain\":" + json_str(domain_name(f.domain));
    out += ",\"fitted\":";
    out += f.fitted ? "true" : "false";
    out += ",\"degenerate\":";
    out += f.degenerate ? "true" : "false";
    out += ",\"samples\":" + std::to_string(f.samples);
    out += ",\"alpha_ns\":" + std::to_string(f.alpha);
    out += ",\"bandwidth_Bps\":" + fmt_g(f.bandwidth);
    if (!f.note.empty()) out += ",\"note\":" + json_str(f.note);
    out += '}';
  }
  out += "],\"digest\":\"" + std::to_string(report.digest) + "\"}\n";
  for (const auto& r : report.residuals) {
    out += "{\"record\":\"calib_residual\",\"class\":" + json_str(r.cls);
    out += ",\"samples\":" + std::to_string(r.samples);
    out += ",\"observed_ns\":" + std::to_string(r.observed_total);
    out += ",\"modeled_ns\":" + std::to_string(r.modeled_total);
    out += ",\"fitted\":";
    out += r.fitted ? "true" : "false";
    out += ",\"rel_rms\":" + fmt_g(r.rel_rms);
    out += ",\"worst_rel\":" + fmt_g(r.worst_rel);
    if (!r.worst_span.empty()) {
      out += ",\"worst_span\":" + json_str(r.worst_span);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace ms::calib
