// Reproduces Figure 11: a weeks-long production run of a multi-hundred-
// billion-parameter model on 10,000+ GPUs. The loss keeps converging while
// MegaScale's robust training framework repairs and recovers the job more
// than 100 times; >90% of faults are handled automatically and the
// effective-training-time ratio stays above 90%.
//
// The pipeline is prof::run_fig11_pipeline (prof/msprof.h), the call
// `msprof run fig11_production_run` profiles:
//   * one traced steady-state step sets the reference rate, and its
//     critical path feeds the dashboard and the ledger's loss shares;
//   * ft::run_robust_training replays a production-shaped fail-stop
//     schedule (8 weeks, ~9 h cluster MTBF), and checkpoint-writer stalls,
//     fabric link flaps and silent stragglers land on the same timeline;
//   * telemetry::RunLedger turns all of it into the per-interval
//     goodput/MFU/ETTR series of Figure 11 and must close with the ft
//     accounting to within 1%;
//   * a 12288-leaf telemetry::AggregationTree flushes the run's real
//     metric registry through the network cost model and must cost < 1%
//     of training bandwidth.
// Artifacts: fig11_ledger.jsonl (for `msdiag ledger`), fig11_step_trace.json
// (Perfetto) and BENCH_fig11_production_run.json (for tools/bench_gate.py).
// Exits nonzero when a gate fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench/common.h"
#include "chaos/schedule.h"
#include "core/stats.h"
#include "core/table.h"
#include "diag/artifact.h"
#include "diag/timeline.h"
#include "optim/trainer.h"
#include "prof/msprof.h"

using namespace ms;

int main() {
  std::printf(
      "=== Figure 11: production run, >10,000 GPUs, several weeks ===\n\n");
  using prof::kFig11Duration;
  const prof::Fig11Result r = prof::run_fig11_pipeline();

  std::printf("chaos schedule: %zu events (digest 0x%016llx), e.g.\n",
              r.schedule.size(),
              static_cast<unsigned long long>(
                  chaos::schedule_digest(r.schedule)));
  for (std::size_t i = 0; i < r.schedule.size() && i < 3; ++i) {
    std::printf("  %s\n", chaos::describe(r.schedule[i]).c_str());
  }
  std::printf("\n%s\n", telemetry::render(r.series).c_str());

  // ---- loss trajectory driven by the ledger's goodput ----
  optim::ScalingLawLoss law(1.7, 12.0, 0.12, 1e9, 0xF13);
  Series loss_curve;
  loss_curve.name = "train loss";
  double tokens = 0;
  for (const auto& row : r.series.intervals) {
    tokens += row.goodput_tokens_per_second * to_seconds(row.end - row.begin);
    loss_curve.add(tokens / 1e12, law.loss_at(std::max(tokens, 1.0)));
  }
  std::printf("loss vs trillions of tokens:\n%s\n",
              ascii_chart({loss_curve}, 76, 12).c_str());

  // ---- aggregation tree: what does observing all this cost? ----
  Table at({"aggregation level", "senders", "bytes/flush", "stage latency"});
  const auto kib = [](Bytes bytes) {
    return Table::fmt(static_cast<double>(bytes) / 1024.0, 1) + " KiB";
  };
  for (const auto& level : r.flush.levels) {
    at.add_row({level.level, Table::fmt_int(level.senders), kib(level.bytes),
                format_duration(level.stage_latency)});
  }
  // Every sparse flush re-submits 1/32 of the hosts; one stands for all.
  const telemetry::FlushReport& sparse = r.sparse.front();
  at.add_row({"sparse (x" + std::to_string(r.sparse.size()) + ")",
              Table::fmt_int(sparse.levels.front().senders),
              kib(sparse.network_bytes + sparse.intra_bytes),
              format_duration(sparse.propagation_latency)});
  at.print();
  std::printf(
      "tree: %d hosts, %d pods; per-rank sketch %lld B; flush every %s\n"
      "propagation latency %s; per-host uplink %.3f MB/s = %.4f%% of "
      "training bandwidth\n\n",
      r.hosts, r.pods, static_cast<long long>(r.rank_sketch_bytes),
      format_duration(r.flush_interval).c_str(),
      format_duration(r.flush.propagation_latency).c_str(),
      r.flush.per_host_uplink / 1e6, r.flush.overhead_fraction * 100.0);
  std::printf(
      "fabric observatory: %d links, %zu series, %lld B per host leader "
      "sketch\n\n",
      r.fabric_links, r.fabric_series,
      static_cast<long long>(r.fabric_sketch_bytes));

  std::printf("--- telemetry dashboard (per-step + heartbeat health) ---\n");
  std::printf("%s\n", r.dashboard.c_str());

  Table t({"metric", "simulated", "paper"});
  t.add_row({"duration", Table::fmt(to_days(kFig11Duration), 0) + " days",
             "several weeks"});
  t.add_row({"tokens trained", Table::fmt(tokens / 1e12, 2) + "T",
             "multi-trillion"});
  t.add_row({"restarts", Table::fmt_int(r.report.restarts), "over 100"});
  t.add_row({"auto detected+fixed",
             Table::fmt_pct(r.report.auto_detected_fraction), "over 90%"});
  t.add_row({"effective training time",
             Table::fmt_pct(r.series.totals.ettr), "over 90%"});
  t.add_row({"telemetry overhead",
             Table::fmt_pct(r.flush.overhead_fraction, 3), "negligible"});
  t.print();
  std::printf("pipeline digest 0x%016llx (= `msprof overhead` fig11 digest)\n",
              static_cast<unsigned long long>(r.digest));

  // ---- artifacts ----
  const std::string ledger_path = "fig11_ledger.jsonl";
  if (!diag::write_text_file(ledger_path, telemetry::to_jsonl(r.series))) {
    std::fprintf(stderr, "fig11: cannot write %s\n", ledger_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu intervals; render with `msdiag ledger %s`)\n",
              ledger_path.c_str(), r.series.intervals.size(),
              ledger_path.c_str());

  // Perfetto-loadable trace of the steady-state step (the nightly job
  // uploads this next to the ledger, so a goodput regression comes with
  // the step timeline that produced the reference rate).
  const std::string trace_path = "fig11_step_trace.json";
  diag::TimelineTrace step_trace;
  for (const auto& span : r.step.trace) step_trace.add(span);
  if (!diag::write_text_file(trace_path, step_trace.chrome_trace_json())) {
    std::fprintf(stderr, "fig11: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("wrote %s (steady-step Perfetto trace, %zu spans)\n",
              trace_path.c_str(), r.step.trace.size());

  bench::BenchReport br("fig11_production_run");
  br.config("gpus", prof::kFig11Gpus);
  br.config("global_batch", prof::kFig11Batch);
  br.config("duration_days", to_days(kFig11Duration));
  br.config("cluster_mtbf_hours", to_hours(prof::kFig11Mtbf));
  br.config("flush_interval_ms", to_milliseconds(r.flush_interval));
  br.config("chaos_events", static_cast<double>(r.schedule.size()));
  br.metric("ettr", r.series.totals.ettr, 0.02);
  br.metric("goodput_fraction", r.series.totals.goodput_fraction, 0.02);
  br.metric("mfu_mean", r.series.totals.mfu_mean, 0.02);
  br.metric("restarts", r.report.restarts, 0.10);
  br.metric("auto_detected_fraction", r.report.auto_detected_fraction, 0.05);
  br.metric("tokens_trained_T", tokens / 1e12, 0.02);
  br.metric("telemetry_overhead_fraction", r.flush.overhead_fraction, 0.10);
  br.metric("agg_propagation_ms",
            to_milliseconds(r.flush.propagation_latency), 0.10);
  br.info("ledger_intervals", static_cast<double>(r.series.intervals.size()));
  br.info("fabric_sketch_bytes", static_cast<double>(r.fabric_sketch_bytes));

  // ---- gates ----
  int failures = 0;
  const double expected_ettr =
      r.report.effective_time_ratio - static_cast<double>(r.overlay_stall) /
                                          static_cast<double>(kFig11Duration);
  const double closure_err = std::abs(r.series.totals.ettr - expected_ettr);
  br.info("ettr_closure_error", closure_err);
  if (closure_err > 0.01) {
    std::fprintf(stderr,
                 "GATE FAIL: ledger ETTR %.6f vs ft accounting %.6f "
                 "(closure error %.6f > 0.01)\n",
                 r.series.totals.ettr, expected_ettr, closure_err);
    ++failures;
  }
  if (r.flush.overhead_fraction >= 0.01) {
    std::fprintf(stderr,
                 "GATE FAIL: telemetry overhead %.4f%% >= 1%% of training "
                 "bandwidth\n",
                 r.flush.overhead_fraction * 100.0);
    ++failures;
  }
  // The step is simulated once: a second traced simulation would double
  // every op in the trace and move the critical path the ledger reads.
  if (r.step.trace.size() != r.step.base.spans.size()) {
    std::fprintf(stderr,
                 "GATE FAIL: step trace holds %zu spans for %zu ops (one "
                 "span per op expected)\n",
                 r.step.trace.size(), r.step.base.spans.size());
    ++failures;
  }
  if (!br.write()) {
    std::fprintf(stderr, "fig11: cannot write BENCH artifact\n");
    ++failures;
  }
  if (failures == 0) {
    std::printf("gates: ledger/ft closure %.2e (<= 0.01), telemetry "
                "overhead %.4f%% (< 1%%), one trace span per op — OK\n",
                closure_err, r.flush.overhead_fraction * 100.0);
  }
  return failures == 0 ? 0 : 1;
}
