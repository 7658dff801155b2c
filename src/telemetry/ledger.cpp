#include "telemetry/ledger.h"

#include "prof/profiler.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "check/digest.h"
#include "core/flags.h"
#include "core/json.h"
#include "core/stats.h"
#include "core/table.h"
#include "diag/artifact.h"

namespace ms::telemetry {

const char* lost_cause_name(LostCause cause) {
  switch (cause) {
    case LostCause::kDetection: return "detection";
    case LostCause::kRecovery: return "recovery";
    case LostCause::kLostProgress: return "lost-progress";
    case LostCause::kCkptStall: return "ckpt-stall";
    case LostCause::kFabricStall: return "fabric-stall";
    case LostCause::kStraggler: return "straggler";
  }
  return "?";
}

RunLedger::RunLedger(const LedgerConfig& cfg) : cfg_(cfg) {
  assert(cfg_.duration > 0 && cfg_.interval > 0);
}

void RunLedger::set_steady_state(const SteadyState& steady) {
  steady_ = steady;
}

void RunLedger::add_lost(TimeNs at, TimeNs duration, LostCause cause) {
  if (duration <= 0) return;
  lost_.push_back({at, duration, cause});
}

void RunLedger::add_restart(TimeNs at) { restarts_.push_back(at); }

void RunLedger::add_slowdown(TimeNs begin, TimeNs end, double factor,
                             LostCause cause) {
  if (end <= begin || factor <= 1.0) return;
  slowdowns_.push_back({begin, end, factor, cause});
}

void RunLedger::record_step_diagnosis(const diag::StepDiagnosis& diagnosis) {
  step_loss_shares_.clear();
  if (diagnosis.makespan <= 0) return;
  for (const auto& [kind, total] : diagnosis.breakdown) {
    step_loss_shares_[diag::segment_kind_name(kind)] =
        static_cast<double>(total) / static_cast<double>(diagnosis.makespan);
  }
}

void RunLedger::ingest(const ft::RunReport& report,
                       TimeNs checkpoint_interval) {
  // Replay the workflow's own clock so every charged nanosecond lands at
  // the wall time the workflow accounted it (the closure law the tests
  // pin: ledger ETTR == report.effective_time_ratio).
  const TimeNs duration = report.duration;
  const TimeNs ckpt_stall_each =
      report.checkpoints_taken > 0
          ? report.checkpoint_stall_total / report.checkpoints_taken
          : 0;
  TimeNs now = 0;
  TimeNs progress = 0;
  auto advance_healthy = [&](TimeNs until) {
    TimeNs up = until - now;
    if (up <= 0) return;
    TimeNs at = now;
    TimeNs to_next = checkpoint_interval - progress;
    while (up >= to_next) {
      up -= to_next;
      at += to_next;
      add_lost(at, ckpt_stall_each, LostCause::kCkptStall);
      progress = 0;
      to_next = checkpoint_interval;
    }
    progress += up;
    now = until;
  };

  for (const auto& inc : report.incidents) {
    const TimeNs strike = std::max(inc.fault.at, now);
    advance_healthy(strike);
    add_restart(strike);
    add_lost(strike, inc.detect_latency, LostCause::kDetection);
    add_lost(strike + inc.detect_latency, inc.downtime - inc.detect_latency,
             LostCause::kRecovery);
    // The redo of work since the last checkpoint happens right after
    // resume: wall clock says "training", the ledger says "lost".
    add_lost(strike + inc.downtime, inc.lost_progress,
             LostCause::kLostProgress);
    now = strike + inc.downtime;
    progress = 0;
    if (now >= duration) break;
  }
  if (now < duration) advance_healthy(duration);
}

namespace {

TimeNs overlap(TimeNs a_lo, TimeNs a_hi, TimeNs b_lo, TimeNs b_hi) {
  return std::max<TimeNs>(0, std::min(a_hi, b_hi) - std::max(a_lo, b_lo));
}

void fold_double(check::Digest& d, double v) {
  d.fold(std::bit_cast<std::uint64_t>(v));
}

}  // namespace

LedgerSeries RunLedger::finalize() const {
  MS_PROF_SCOPE("telemetry.ledger_finalize");
  LedgerSeries series;
  series.duration = cfg_.duration;
  series.interval = cfg_.interval;
  series.steady = steady_;
  series.step_loss_shares = step_loss_shares_;

  const int n = static_cast<int>((cfg_.duration + cfg_.interval - 1) /
                                 cfg_.interval);
  std::vector<TimeNs> restart_times = restarts_;
  std::sort(restart_times.begin(), restart_times.end());

  TimeNs cum_hard = 0;
  double tokens_total = 0;
  double goodput_scale_sum = 0;
  for (int i = 0; i < n; ++i) {
    LedgerInterval row;
    row.index = i;
    row.begin = i * cfg_.interval;
    row.end = std::min(cfg_.duration, row.begin + cfg_.interval);
    const TimeNs len = row.end - row.begin;

    TimeNs hard = 0;
    for (const auto& ev : lost_) {
      const TimeNs ov = overlap(ev.at, ev.at + ev.duration, row.begin, row.end);
      if (ov <= 0) continue;
      row.lost[static_cast<std::size_t>(ev.cause)] += ov;
      hard += ov;
    }
    hard = std::min(hard, len);  // overlapping windows can't lose > wall time
    row.effective = len - hard;
    cum_hard += hard;

    // Slowdown windows: rate losses against the effective part of the
    // interval. The (effective / len) discount approximates the share of
    // each window overlapping actual training time.
    double slow_loss = 0;
    const double eff_frac =
        len > 0 ? static_cast<double>(row.effective) / static_cast<double>(len)
                : 0.0;
    for (const auto& w : slowdowns_) {
      const TimeNs ov = overlap(w.begin, w.end, row.begin, row.end);
      if (ov <= 0) continue;
      const double loss =
          static_cast<double>(ov) * (1.0 - 1.0 / w.factor) * eff_frac;
      row.lost[static_cast<std::size_t>(w.cause)] +=
          static_cast<TimeNs>(loss);
      slow_loss += loss;
    }
    const double eff_weighted = std::max(
        0.0, static_cast<double>(row.effective) - slow_loss);

    const auto lo = std::lower_bound(restart_times.begin(),
                                     restart_times.end(), row.begin);
    const auto hi = std::lower_bound(restart_times.begin(),
                                     restart_times.end(), row.end);
    row.restarts = static_cast<int>(hi - lo);

    const double scale =
        len > 0 ? eff_weighted / static_cast<double>(len) : 0.0;
    row.goodput_tokens_per_second = steady_.tokens_per_second * scale;
    row.mfu = steady_.mfu * scale;
    row.ettr_cum =
        row.end > 0
            ? 1.0 - static_cast<double>(cum_hard) / static_cast<double>(row.end)
            : 1.0;
    tokens_total +=
        steady_.tokens_per_second * to_seconds(static_cast<TimeNs>(eff_weighted));
    goodput_scale_sum += scale * static_cast<double>(len);

    series.intervals.push_back(row);
  }

  // Totals use *unclipped* charges, mirroring the ft workflow: an incident
  // near the window edge costs its full downtime.
  TimeNs hard_total = 0;
  for (const auto& ev : lost_) {
    series.totals.lost[static_cast<std::size_t>(ev.cause)] += ev.duration;
    hard_total += ev.duration;
  }
  for (const auto& w : slowdowns_) {
    series.totals.lost[static_cast<std::size_t>(w.cause)] +=
        static_cast<TimeNs>(static_cast<double>(w.end - w.begin) *
                            (1.0 - 1.0 / w.factor));
  }
  series.totals.ettr =
      1.0 - static_cast<double>(hard_total) /
                static_cast<double>(cfg_.duration);
  series.totals.restarts = static_cast<int>(restart_times.size());
  series.totals.tokens_total = tokens_total;
  series.totals.goodput_fraction =
      goodput_scale_sum / static_cast<double>(cfg_.duration);
  double mfu_sum = 0;
  for (const auto& row : series.intervals) mfu_sum += row.mfu;
  series.totals.mfu_mean =
      series.intervals.empty()
          ? 0.0
          : mfu_sum / static_cast<double>(series.intervals.size());

  series.digest = ledger_digest(series);
  return series;
}

std::uint64_t ledger_digest(const LedgerSeries& series) {
  check::Digest d;
  d.fold(series.duration);
  d.fold(series.interval);
  d.fold(series.steady.step_time);
  fold_double(d, series.steady.mfu);
  fold_double(d, series.steady.tokens_per_second);
  for (const auto& [name, share] : series.step_loss_shares) {
    d.fold(std::string_view(name));
    fold_double(d, share);
  }
  for (const auto& row : series.intervals) {
    d.fold(static_cast<std::uint64_t>(row.index));
    d.fold(row.begin);
    d.fold(row.end);
    d.fold(row.effective);
    for (TimeNs l : row.lost) d.fold(l);
    d.fold(static_cast<std::uint64_t>(row.restarts));
    fold_double(d, row.goodput_tokens_per_second);
    fold_double(d, row.mfu);
    fold_double(d, row.ettr_cum);
  }
  fold_double(d, series.totals.ettr);
  for (TimeNs l : series.totals.lost) d.fold(l);
  d.fold(static_cast<std::uint64_t>(series.totals.restarts));
  fold_double(d, series.totals.tokens_total);
  fold_double(d, series.totals.goodput_fraction);
  fold_double(d, series.totals.mfu_mean);
  return d.value();
}

// ------------------------------------------------------------- JSONL I/O

namespace {

std::string fmt_g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void emit_lost(std::ostringstream& out,
               const std::array<TimeNs, kLostCauseCount>& lost) {
  out << "{";
  for (int c = 0; c < kLostCauseCount; ++c) {
    if (c) out << ',';
    out << '"' << lost_cause_name(static_cast<LostCause>(c)) << "\":"
        << lost[static_cast<std::size_t>(c)];
  }
  out << "}";
}

void read_lost(json::Fields f, std::array<TimeNs, kLostCauseCount>& lost) {
  for (int c = 0; c < kLostCauseCount; ++c) {
    f.integer(lost_cause_name(static_cast<LostCause>(c)),
              lost[static_cast<std::size_t>(c)]);
  }
}

}  // namespace

std::string to_jsonl(const LedgerSeries& series) {
  std::ostringstream out;
  out << "{\"type\":\"ledger\",\"version\":1,\"duration_ns\":"
      << series.duration << ",\"interval_ns\":" << series.interval
      << ",\"step_ns\":" << series.steady.step_time << ",\"steady_mfu\":"
      << fmt_g17(series.steady.mfu) << ",\"steady_tokens_per_second\":"
      << fmt_g17(series.steady.tokens_per_second)
      << ",\"step_loss_shares\":{";
  bool first = true;
  for (const auto& [name, share] : series.step_loss_shares) {
    if (!first) out << ',';
    first = false;
    out << '"' << json::escape(name) << "\":" << fmt_g17(share);
  }
  out << "}}\n";
  for (const auto& row : series.intervals) {
    out << "{\"type\":\"interval\",\"i\":" << row.index << ",\"begin_ns\":"
        << row.begin << ",\"end_ns\":" << row.end << ",\"effective_ns\":"
        << row.effective << ",\"restarts\":" << row.restarts
        << ",\"goodput_tokens_per_second\":"
        << fmt_g17(row.goodput_tokens_per_second) << ",\"mfu\":"
        << fmt_g17(row.mfu) << ",\"ettr_cum\":" << fmt_g17(row.ettr_cum)
        << ",\"lost_ns\":";
    emit_lost(out, row.lost);
    out << "}\n";
  }
  char digest[24];
  std::snprintf(digest, sizeof(digest), "0x%016" PRIx64, series.digest);
  out << "{\"type\":\"summary\",\"ettr\":" << fmt_g17(series.totals.ettr)
      << ",\"goodput_fraction\":" << fmt_g17(series.totals.goodput_fraction)
      << ",\"mfu_mean\":" << fmt_g17(series.totals.mfu_mean)
      << ",\"restarts\":" << series.totals.restarts << ",\"tokens_total\":"
      << fmt_g17(series.totals.tokens_total) << ",\"lost_ns\":";
  emit_lost(out, series.totals.lost);
  out << ",\"digest\":\"" << digest << "\"}\n";
  return out.str();
}

bool parse_ledger_jsonl(const std::string& text, LedgerSeries& out,
                        std::string* error) {
  LedgerSeries series;
  bool saw_header = false, saw_summary = false;
  const auto row = [&](json::Fields& f) {
    std::string type;
    f.text("type", type);
    if (type == "ledger") {
      saw_header = true;
      f.integer("duration_ns", series.duration);
      f.integer("interval_ns", series.interval, 1);
      f.integer("step_ns", series.steady.step_time);
      f.real("steady_mfu", series.steady.mfu);
      f.real("steady_tokens_per_second", series.steady.tokens_per_second);
      const json::Value* shares = f.find("step_loss_shares");  // optional
      if (shares == nullptr) return;
      json::Fields s = f.object("step_loss_shares");
      if (!shares->is_object()) return;
      for (const auto& [name, unused] : *shares->object) {
        s.real(name, series.step_loss_shares[name]);
      }
    } else if (type == "interval") {
      // Rows are numbered 0, 1, ... in file order.
      const auto next = static_cast<std::int64_t>(series.intervals.size());
      LedgerInterval& r = series.intervals.emplace_back();
      f.integer("i", r.index, next, next);
      f.integer("begin_ns", r.begin);
      f.integer("end_ns", r.end, r.begin);
      f.integer("effective_ns", r.effective, 0, r.end - r.begin);
      f.integer("restarts", r.restarts);
      f.real("goodput_tokens_per_second", r.goodput_tokens_per_second);
      f.real("mfu", r.mfu);
      f.real("ettr_cum", r.ettr_cum);
      read_lost(f.object("lost_ns"), r.lost);
    } else if (type == "summary") {
      saw_summary = true;
      f.real("ettr", series.totals.ettr);
      f.real("goodput_fraction", series.totals.goodput_fraction);
      f.real("mfu_mean", series.totals.mfu_mean);
      f.integer("restarts", series.totals.restarts);
      f.real("tokens_total", series.totals.tokens_total);
      read_lost(f.object("lost_ns"), series.totals.lost);
      f.hex("digest", series.digest);
    } else {
      f.fail("unknown record type \"" + type + "\"");
    }
  };
  if (!json::parse_lines(text, row, error)) return false;
  if (!saw_header) return json::fail(error, "no ledger header line");
  if (!saw_summary) return json::fail(error, "no summary line");
  out = std::move(series);
  return true;
}

// ------------------------------------------------------------- rendering

std::string render(const LedgerSeries& series, bool chart) {
  std::ostringstream out;
  out << "=== run ledger: " << Table::fmt(to_days(series.duration), 1)
      << " days in " << series.intervals.size() << " intervals of "
      << format_duration(series.interval) << " ===\n";

  Table t({"metric", "value"});
  t.add_row({"effective training time (ETTR)",
             Table::fmt_pct(series.totals.ettr)});
  t.add_row({"goodput (vs steady state)",
             Table::fmt_pct(series.totals.goodput_fraction)});
  t.add_row({"MFU (run mean)", Table::fmt_pct(series.totals.mfu_mean)});
  t.add_row({"restarts", Table::fmt_int(series.totals.restarts)});
  t.add_row({"tokens trained",
             Table::fmt(series.totals.tokens_total / giga(1000.0), 2) + "T"});
  t.add_row({"steady step time", format_duration(series.steady.step_time)});
  out << t.to_string();

  TimeNs lost_total = 0;
  for (TimeNs l : series.totals.lost) lost_total += l;
  if (lost_total > 0) {
    out << "\nlost time by cause:\n";
    Table lt({"cause", "lost", "share of run"});
    for (int c = 0; c < kLostCauseCount; ++c) {
      const TimeNs l = series.totals.lost[static_cast<std::size_t>(c)];
      if (l == 0) continue;
      lt.add_row({lost_cause_name(static_cast<LostCause>(c)),
                  format_duration(l),
                  Table::fmt_pct(static_cast<double>(l) /
                                 static_cast<double>(series.duration))});
    }
    out << lt.to_string();
  }
  if (!series.step_loss_shares.empty()) {
    out << "\nwithin-step decomposition (diag critical path, share of step):\n";
    Table st({"segment", "share"});
    for (const auto& [name, share] : series.step_loss_shares) {
      st.add_row({name, Table::fmt_pct(share)});
    }
    out << st.to_string();
  }

  if (chart && !series.intervals.empty()) {
    Series goodput, mfu, ettr;
    goodput.name = "goodput frac";
    mfu.name = "MFU";
    ettr.name = "ETTR (cum)";
    const double steady_rate = series.steady.tokens_per_second;
    for (const auto& row : series.intervals) {
      const double hours_at = to_hours(row.end);
      goodput.add(hours_at, steady_rate > 0
                                ? row.goodput_tokens_per_second / steady_rate
                                : 0.0);
      mfu.add(hours_at, row.mfu);
      ettr.add(hours_at, row.ettr_cum);
    }
    out << "\ngoodput / MFU / ETTR over time (x = hours):\n"
        << ascii_chart({goodput, mfu, ettr}, 76, 16);
  }
  return out.str();
}

std::string ledger_diff(const LedgerSeries& base, const LedgerSeries& cand) {
  std::ostringstream out;
  out << "=== ledger diff (cand - base) ===\n";
  Table t({"metric", "base", "cand", "delta"});
  auto row = [&](const std::string& name, double b, double c,
                 const std::string& bs, const std::string& cs,
                 const std::string& ds) {
    (void)b;
    (void)c;
    t.add_row({name, bs, cs, ds});
  };
  row("ETTR", base.totals.ettr, cand.totals.ettr,
      Table::fmt_pct(base.totals.ettr), Table::fmt_pct(cand.totals.ettr),
      Table::fmt((cand.totals.ettr - base.totals.ettr) * 100.0, 2) + " pp");
  row("goodput fraction", base.totals.goodput_fraction,
      cand.totals.goodput_fraction,
      Table::fmt_pct(base.totals.goodput_fraction),
      Table::fmt_pct(cand.totals.goodput_fraction),
      Table::fmt(
          (cand.totals.goodput_fraction - base.totals.goodput_fraction) *
              100.0,
          2) +
          " pp");
  row("MFU mean", base.totals.mfu_mean, cand.totals.mfu_mean,
      Table::fmt_pct(base.totals.mfu_mean),
      Table::fmt_pct(cand.totals.mfu_mean),
      Table::fmt((cand.totals.mfu_mean - base.totals.mfu_mean) * 100.0, 2) +
          " pp");
  t.add_row({"restarts", Table::fmt_int(base.totals.restarts),
             Table::fmt_int(cand.totals.restarts),
             Table::fmt_int(cand.totals.restarts - base.totals.restarts)});
  for (int c = 0; c < kLostCauseCount; ++c) {
    const TimeNs b = base.totals.lost[static_cast<std::size_t>(c)];
    const TimeNs cd = cand.totals.lost[static_cast<std::size_t>(c)];
    if (b == 0 && cd == 0) continue;
    t.add_row({std::string("lost: ") +
                   lost_cause_name(static_cast<LostCause>(c)),
               format_duration(b), format_duration(cd),
               (cd >= b ? "+" : "-") + format_duration(std::abs(cd - b))});
  }
  out << t.to_string();

  // Worst-regressing interval by goodput (when shapes line up).
  if (base.intervals.size() == cand.intervals.size() &&
      !base.intervals.empty()) {
    std::size_t worst = 0;
    double worst_delta = 0;
    for (std::size_t i = 0; i < base.intervals.size(); ++i) {
      const double delta = cand.intervals[i].goodput_tokens_per_second -
                           base.intervals[i].goodput_tokens_per_second;
      if (delta < worst_delta) {
        worst_delta = delta;
        worst = i;
      }
    }
    if (worst_delta < 0) {
      out << "worst interval: #" << worst << " ("
          << format_duration(base.intervals[worst].begin) << " - "
          << format_duration(base.intervals[worst].end) << "), goodput "
          << Table::fmt(worst_delta / mega(1.0), 2) << "M tokens/s vs base\n";
    }
  } else if (base.intervals.size() != cand.intervals.size()) {
    out << "interval shapes differ: base " << base.intervals.size()
        << ", cand " << cand.intervals.size() << "\n";
  }
  return out.str();
}

// ------------------------------------------------------------------ CLI

std::string ledger_usage() {
  return "  ledger <run.jsonl> [--json] [--no-chart]   render a run ledger\n"
         "  ledger --diff <base.jsonl> <cand.jsonl>    compare two runs\n";
}

namespace {

bool load_ledger(const std::string& path, LedgerSeries& series,
                 std::ostream& err) {
  std::string text, problem;
  if (!diag::read_text_file(path, text, &problem) ||
      !parse_ledger_jsonl(text, series, &problem)) {
    err << "msdiag: " << path << ": " << problem << '\n';
    return false;
  }
  if (series.digest != ledger_digest(series)) {
    err << "msdiag: warning: " << path
        << " digest mismatch (artifact edited or truncated?)\n";
  }
  return true;
}

}  // namespace

int ledger_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  std::string path, base_path;
  bool as_json = false;
  bool no_chart = false;
  flags::Parser p("msdiag ledger", "usage:\n" + ledger_usage());
  p.positional("<run.jsonl>", path);
  p.text("--diff", base_path);  // the base run; <run.jsonl> is the candidate
  p.flag("--json", as_json);
  p.flag("--no-chart", no_chart);
  if (!p.parse(args, err)) return 1;
  if (p.seen("--diff")) {
    LedgerSeries base, cand;
    if (!load_ledger(base_path, base, err)) return 1;
    if (!load_ledger(path, cand, err)) return 1;
    out << ledger_diff(base, cand);
    return 0;
  }
  LedgerSeries series;
  if (!load_ledger(path, series, err)) return 1;
  out << (as_json ? to_jsonl(series) : render(series, !no_chart));
  return 0;
}

}  // namespace ms::telemetry
