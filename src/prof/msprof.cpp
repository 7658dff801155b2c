#include "prof/msprof.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>

#include "bench/common.h"
#include "check/digest.h"
#include "core/flags.h"
#include "core/rng.h"
#include "core/table.h"
#include "core/wallclock.h"
#include "diag/artifact.h"
#include "net/fabric/observatory.h"
#include "net/fabric/rounds.h"
#include "prof/profiler.h"
#include "prof/report.h"
#include "prof/telemetry_bridge.h"
#include "sim/engine.h"
#include "telemetry/dashboard.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"
#include "telemetry/sketch.h"
#include "telemetry/trace.h"

namespace ms::prof {

namespace {

WorkloadResult result_from(const sim::Engine& eng) {
  WorkloadResult r;
  r.events = eng.executed();
  r.peak_queue = eng.peak_queue_size();
  r.digest = eng.digest();
  return r;
}

/// Production-shaped chaos schedule: the ft fail-stop draw plus the event
/// classes the workflow does not model itself (extra checkpoint-writer
/// stalls, fabric link flaps, silent straggler windows).
chaos::FaultSchedule build_schedule(const std::vector<ft::FaultEvent>& fails,
                                    Rng& rng) {
  using chaos::FaultKind;
  chaos::FaultSchedule sched;
  for (const auto& f : fails) {
    sched.push_back({.at = f.at, .kind = FaultKind::kFailStop,
                     .node = f.node, .fail_type = f.type});
  }
  // Checkpoint-writer stalls: HDFS hiccups every ~4-5 days (§4.4).
  for (TimeNs t = hours(30.0); t < kFig11Duration;
       t += hours(96.0) + seconds(rng.uniform(0.0, 24.0 * 3600.0))) {
    sched.push_back({.at = t, .kind = FaultKind::kCkptStall,
                     .duration = minutes(rng.uniform(1.0, 4.0))});
  }
  // Fabric link flaps: short stalls while routing converges (§3.6).
  for (TimeNs t = hours(12.0); t < kFig11Duration;
       t += hours(110.0) + seconds(rng.uniform(0.0, 36.0 * 3600.0))) {
    sched.push_back({.at = t, .kind = FaultKind::kLinkFlap,
                     .node = static_cast<int>(rng.next_u64() % 1536),
                     .duration = seconds(rng.uniform(30.0, 300.0))});
  }
  // Silent stragglers: one slow machine derates the whole job until the
  // §5.1 monitor catches it (~4 h observation window).
  for (TimeNs t = days(5.0); t < kFig11Duration - hours(6.0);
       t += days(8.0) + seconds(rng.uniform(0.0, 3.0 * 24.0 * 3600.0))) {
    sched.push_back({.at = t, .kind = FaultKind::kStraggler,
                     .node = static_cast<int>(rng.next_u64() % 1536),
                     .duration = hours(4.0),
                     .magnitude = rng.uniform(0.08, 0.20)});
  }
  chaos::sort_schedule(sched);
  return sched;
}

}  // namespace

WorkloadResult run_micro_engine(const MicroEngineConfig& cfg) {
  sim::Engine eng;

  // Phase 1: self-rescheduling chains — the steady-state DES pattern
  // (every handler schedules its successor; queue stays shallow).
  {
    MS_PROF_SCOPE("micro.churn");
    struct Chain {
      sim::Engine* eng = nullptr;
      int remaining = 0;
      std::function<void()> tick;
    };
    std::vector<std::unique_ptr<Chain>> chains;
    for (int c = 0; c < cfg.chains; ++c) {
      chains.push_back(std::make_unique<Chain>());
      Chain* ch = chains.back().get();
      ch->eng = &eng;
      ch->remaining = cfg.chain_events;
      ch->tick = [ch] {
        if (--ch->remaining > 0) ch->eng->after(1, ch->tick);
      };
      eng.after(1, ch->tick);
    }
    eng.run();
  }

  // Phase 2: fan-out — a deep pre-seeded queue (worst-case heap depth).
  {
    MS_PROF_SCOPE("micro.fanout");
    const TimeNs base = eng.now();
    for (int i = 0; i < cfg.fanout_events; ++i) {
      eng.at(base + 1 + i, [] {});
    }
    eng.run();
  }

  return result_from(eng);
}

SteadyStep run_steady_step(engine::JobConfig job) {
  MS_PROF_SCOPE("fig11.steady_step");
  telemetry::Tracer tracer;
  job.tracer = &tracer;
  SteadyStep step;
  step.base = engine::simulate_iteration(job);
  step.fold = bench::fold_with_cluster(step.base, job);
  step.trace = tracer.spans();
  return step;
}

Fig11Result run_fig11_pipeline() {
  Fig11Result r;
  telemetry::MetricsRegistry registry;

  auto job = bench::megascale_175b(kFig11Gpus, kFig11Batch);
  job.metrics = &registry;
  r.step = run_steady_step(job);
  {
    MS_PROF_SCOPE("fig11.diagnosis");
    r.diagnosis = diag::analyze_spans(r.step.trace);
  }

  ft::WorkflowConfig wf;
  wf.nodes = kFig11Gpus / 8;
  wf.metrics = &registry;
  std::vector<ft::FaultEvent> fails;
  {
    MS_PROF_SCOPE("fig11.fault_schedule");
    Rng fault_rng(0xF11);
    fails = ft::draw_fault_schedule(kFig11Duration, kFig11Mtbf, wf.nodes,
                                    ft::default_fault_mix(), fault_rng);
  }
  {
    MS_PROF_SCOPE("fig11.chaos_overlay");
    Rng chaos_rng(0xF14);
    r.schedule = build_schedule(fails, chaos_rng);
  }
  {
    MS_PROF_SCOPE("fig11.ft_replay");
    Rng run_rng(0xF12);
    r.report = ft::run_robust_training(wf, kFig11Duration, fails, run_rng);
  }

  // The run ledger: Figure 11 as a time series.
  {
    MS_PROF_SCOPE("fig11.ledger");
    telemetry::LedgerConfig lcfg;
    lcfg.duration = kFig11Duration;
    lcfg.interval = hours(6.0);
    telemetry::RunLedger ledger(lcfg);
    telemetry::SteadyState steady;
    steady.step_time = r.step.fold.iteration_time;
    steady.mfu = r.step.fold.mfu;
    steady.tokens_per_second =
        job.tokens_per_iteration() / to_seconds(r.step.fold.iteration_time);
    ledger.set_steady_state(steady);
    ledger.ingest(r.report, wf.checkpoint_interval);
    ledger.record_step_diagnosis(r.diagnosis);
    for (const auto& inj : r.schedule) {
      switch (inj.kind) {
        case chaos::FaultKind::kCkptStall:
          ledger.add_lost(inj.at, inj.duration,
                          telemetry::LostCause::kCkptStall);
          r.overlay_stall += inj.duration;
          break;
        case chaos::FaultKind::kLinkFlap:
          ledger.add_lost(inj.at, inj.duration,
                          telemetry::LostCause::kFabricStall);
          r.overlay_stall += inj.duration;
          break;
        case chaos::FaultKind::kStraggler:
          ledger.add_slowdown(inj.at, inj.at + inj.duration,
                              1.0 + inj.magnitude,
                              telemetry::LostCause::kStraggler);
          break;
        default:
          break;  // fail-stops went through the ft replay
      }
    }
    r.series = ledger.finalize();
  }

  {
    MS_PROF_SCOPE("fig11.dashboard");
    telemetry::TrainingDashboard dashboard(&registry);
    dashboard.record_step(job, r.step.base);
    dashboard.record_diagnosis(r.diagnosis);
    dashboard.record_health(r.report);
    r.dashboard = dashboard.report();
  }

  // What does observing all this cost?
  {
    MS_PROF_SCOPE("fig11.agg_tree");
    telemetry::AggTreeConfig acfg;
    acfg.ranks = kFig11Gpus;
    acfg.ranks_per_host = job.cluster.gpus_per_node;
    acfg.hosts_per_pod = 32;
    acfg.cluster = job.cluster;
    acfg.network_efficiency = job.network_efficiency;
    telemetry::AggregationTree tree(acfg);
    r.hosts = tree.hosts();
    r.pods = tree.pods();
    r.flush_interval = acfg.flush_interval;
    const auto rank_sketch =
        telemetry::SketchSnapshot::from(registry.snapshot());
    r.rank_sketch_bytes = rank_sketch.encoded_bytes();
    // Each host's NIC daemon exports its local fabric series (per-link
    // utilization, queue depth, ECN and PFC counters from net/fabric)
    // alongside the rank metrics; a storm-shaped multi-hop run stands in
    // for one host's worth of link samples. The fabric sketch rides the
    // host leader rank's submission, so fabric sampling is charged against
    // the same <1% observability-overhead gate as everything else.
    net::fabric::FabricObservatory fabric_obs;
    net::fabric::run_storm_round(1.0 / 3.0, &fabric_obs);  // 8 senders
    const auto fabric_sketch = fabric_obs.sketch();
    r.fabric_links = fabric_obs.link_count();
    r.fabric_series = fabric_sketch.size();
    r.fabric_sketch_bytes = fabric_sketch.encoded_bytes();
    auto leader_sketch = rank_sketch;
    leader_sketch.merge(fabric_sketch);
    for (int rank = 0; rank < acfg.ranks; ++rank) {
      tree.submit(rank, rank % acfg.ranks_per_host == 0 ? leader_sketch
                                                        : rank_sketch);
    }
    r.flush = tree.flush();
    // Steady-state flush intervals after the cold full flush: a rank only
    // re-submits when its sketch content changed, so each interval sees a
    // sparse dirty set (1/32 of hosts here) and the tree's dirty-subtree
    // short-circuit skips the rest.
    for (int interval = 1; interval <= 4; ++interval) {
      for (int host = interval % 32; host < tree.hosts(); host += 32) {
        tree.submit(host * acfg.ranks_per_host, leader_sketch);
      }
      r.sparse.push_back(tree.flush());
    }

    check::Digest d;
    d.fold(r.series.digest);
    d.fold(tree.root().digest());
    d.fold(r.diagnosis.digest);
    d.fold(chaos::schedule_digest(r.schedule));
    d.fold(static_cast<std::int64_t>(r.report.restarts));
    r.digest = d.value();
  }
  return r;
}

std::vector<std::string> workload_names() {
  return {"micro_engine", "fig11_step", "fig11_production_run"};
}

bool run_workload(const std::string& name, WorkloadResult& out) {
  out = {};
  if (name == "micro_engine") {
    out = run_micro_engine();
  } else if (name == "fig11_step") {
    const SteadyStep step =
        run_steady_step(bench::megascale_175b(kFig11Gpus, kFig11Batch));
    check::Digest d;
    d.fold(step.fold.iteration_time);
    d.fold(std::bit_cast<std::uint64_t>(step.fold.mfu));
    out.digest = d.value();
  } else if (name == "fig11_production_run") {
    out.digest = run_fig11_pipeline().digest;
  } else {
    return false;
  }
  return true;
}

namespace {

// Each repeat reruns the workload (twice under `overhead`). On a 4-core
// host micro_engine takes ~0.45 s a run and fig11_production_run ~0.25 s,
// so 50 repeats of `overhead` run for under a minute.
constexpr int kMaxRepeat = 50;

bool load_report(const std::string& path, ProfileReport& report,
                 std::ostream& err) {
  std::string text, problem;
  if (!diag::read_text_file(path, text, &problem) ||
      !parse_jsonl(text, report, &problem)) {
    err << "msprof: " << path << ": " << problem << "\n";
    return false;
  }
  return true;
}

/// Engine events fired during the profiled window, recovered from the
/// engine's per-event `engine.event` scope (workloads that drive
/// sim::Engine indirectly cannot reach the instance to ask it).
std::uint64_t events_from_scopes(const ProfileReport& report) {
  for (const ScopeStats& s : report.scopes) {
    if (s.name == "engine.event") return s.count;
  }
  return 0;
}

int run_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  std::string workload;
  std::string json_path, trace_path, prom_path;
  std::size_t top_k = 20;
  int repeat = 1;
  flags::Parser p("msprof run",
                  "usage: msprof run <workload> [--top K] [--repeat N]\n"
                  "                  [--json out.jsonl] [--trace out.json] "
                  "[--prom out.prom]\n");
  p.positional("<workload>", workload);
  p.integer("--top", top_k, 0);
  p.integer("--repeat", repeat, 1, kMaxRepeat);
  p.text("--json", json_path);
  p.text("--trace", trace_path);
  p.text("--prom", prom_path);
  if (!p.parse(args, err)) return 1;

  reset();
  set_enabled(true);
  if (!trace_path.empty()) set_tracing(true);
  WorkloadResult result;
  const WallNs t0 = wallclock_ns();
  for (int r = 0; r < repeat; ++r) {
    if (!run_workload(workload, result)) {
      set_enabled(false);
      set_tracing(false);
      err << "msprof: unknown workload '" << workload
          << "' (try `msprof list`)\n";
      return 1;
    }
  }
  const WallNs wall = wallclock_ns() - t0;
  set_enabled(false);
  set_tracing(false);

  ProfileReport report = capture(workload, wall, 0);
  report.events = result.events != 0
                      ? result.events * static_cast<std::uint64_t>(repeat)
                      : events_from_scopes(report);
  out << report.render(top_k);
  char digest_hex[20];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(report.digest()));
  out << "profile digest: 0x" << digest_hex << " (structural: scope names + "
      << "counts only)\n";
  if (result.events != 0) {
    out << "engine: executed "
        << Table::fmt_int(static_cast<long long>(result.events))
        << " | peak queue "
        << Table::fmt_int(static_cast<long long>(result.peak_queue)) << "\n";
  }

  int failures = 0;
  if (!json_path.empty()) {
    if (diag::write_text_file(json_path, report.to_jsonl())) {
      out << "wrote " << json_path << " (profile JSONL)\n";
    } else {
      err << "msprof: cannot write " << json_path << "\n";
      ++failures;
    }
  }
  if (!trace_path.empty()) {
    std::uint64_t dropped = 0;
    const auto events = drain_trace(&dropped);
    if (diag::write_text_file(trace_path, to_chrome_trace(events, dropped))) {
      out << "wrote " << trace_path << " (" << events.size()
          << " self-trace spans";
      if (dropped != 0) out << ", " << dropped << " dropped";
      out << "; load in ui.perfetto.dev)\n";
    } else {
      err << "msprof: cannot write " << trace_path << "\n";
      ++failures;
    }
  }
  if (!prom_path.empty()) {
    telemetry::MetricsRegistry registry;
    export_profile(report, registry);
    if (diag::write_text_file(
            prom_path, telemetry::prometheus_text(registry.snapshot()))) {
      out << "wrote " << prom_path << " (Prometheus exposition)\n";
    } else {
      err << "msprof: cannot write " << prom_path << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int report_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  std::string path;
  std::size_t top_k = 20;
  flags::Parser p("msprof report",
                  "usage: msprof report <profile.jsonl> [--top K]\n");
  p.positional("<profile.jsonl>", path);
  p.integer("--top", top_k, 0);
  if (!p.parse(args, err)) return 1;
  ProfileReport report;
  if (!load_report(path, report, err)) return 1;
  out << report.render(top_k);
  return 0;
}

int diff_main(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  std::string base_path, cand_path;
  std::size_t top_k = 20;
  flags::Parser p("msprof diff",
                  "usage: msprof diff <base.jsonl> <cand.jsonl> [--top K]\n");
  p.positional("<base.jsonl>", base_path);
  p.positional("<cand.jsonl>", cand_path);
  p.integer("--top", top_k, 0);
  if (!p.parse(args, err)) return 1;
  ProfileReport base, cand;
  if (!load_report(base_path, base, err)) return 1;
  if (!load_report(cand_path, cand, err)) return 1;
  out << render_diff(base, cand, top_k);
  return 0;
}

int overhead_main(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  std::string workload = "fig11_production_run";
  int repeat = 3;
  double budget = 0.03;
  flags::Parser p(
      "msprof overhead",
      "usage: msprof overhead [--workload W] [--repeat N] [--budget F]\n");
  p.text("--workload", workload);
  p.integer("--repeat", repeat, 1, kMaxRepeat);
  p.real("--budget", budget, flags::kNonNegative);
  if (!p.parse(args, err)) return 1;

  WorkloadResult result;
  if (!run_workload(workload, result)) {  // also serves as the warm-up run
    err << "msprof: unknown workload '" << workload
        << "' (try `msprof list`)\n";
    return 1;
  }

  // Alternate dormant/enabled rounds (instead of two blocks) so slow host
  // drift hits both sides equally; compare best-of-N, the standard way to
  // estimate the cost floor under scheduling noise.
  WallNs best_off = std::numeric_limits<WallNs>::max();
  WallNs best_on = std::numeric_limits<WallNs>::max();
  std::uint64_t digest_off = 0, digest_on = 0;
  for (int r = 0; r < repeat; ++r) {
    set_enabled(false);
    WallNs t0 = wallclock_ns();
    run_workload(workload, result);
    best_off = std::min(best_off, wallclock_ns() - t0);
    digest_off = result.digest;

    set_enabled(true);
    reset();
    t0 = wallclock_ns();
    run_workload(workload, result);
    best_on = std::min(best_on, wallclock_ns() - t0);
    digest_on = result.digest;
  }
  set_enabled(false);

  const double overhead =
      best_off > 0 ? static_cast<double>(best_on - best_off) /
                         static_cast<double>(best_off)
                   : 0.0;
  constexpr double kNsPerMs = 1'000'000.0;
  out << "profiler overhead on " << workload << " (best of " << repeat
      << "):\n"
      << "  dormant " << Table::fmt(static_cast<double>(best_off) / kNsPerMs, 2)
      << " ms | enabled "
      << Table::fmt(static_cast<double>(best_on) / kNsPerMs, 2) << " ms | "
      << "overhead " << Table::fmt_pct(overhead, 2) << " (budget "
      << Table::fmt_pct(budget, 2) << ")\n";
  if (digest_off == 0) {
    err << "msprof: FAIL — workload " << workload
        << " returned digest 0, so there is nothing to compare\n";
    return 1;
  }
  if (digest_off != digest_on) {
    err << "msprof: FAIL — workload digest changed with profiling enabled "
           "(0x"
        << std::hex << digest_off << " vs 0x" << digest_on << std::dec
        << ")\n";
    return 1;
  }
  out << "  workload digest identical with profiling on/off (0x" << std::hex
      << digest_off << std::dec << ")\n";
  if (overhead > budget) {
    err << "msprof: FAIL — overhead " << Table::fmt_pct(overhead, 2)
        << " exceeds budget " << Table::fmt_pct(budget, 2) << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

std::string msprof_usage() {
  std::string names;
  for (const std::string& n : workload_names()) {
    if (!names.empty()) names += " | ";
    names += n;
  }
  return "msprof — simulator self-profiling (where do the simulator's own "
         "nanoseconds go?)\n"
         "  msprof run <workload> [--top K] [--repeat N] [--json out.jsonl]\n"
         "                        [--trace out.json] [--prom out.prom]\n"
         "  msprof report <profile.jsonl> [--top K]\n"
         "  msprof diff <base.jsonl> <cand.jsonl> [--top K]\n"
         "  msprof overhead [--workload W] [--repeat N] [--budget F]\n"
         "  msprof list\n"
         "  workloads: " +
         names + "\n";
}

int msprof_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  if (args.empty() || args.front() == "--help" || args.front() == "-h") {
    err << msprof_usage();
    return args.empty() ? 1 : 0;
  }
  const std::string& cmd = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (cmd == "run") return run_main(rest, out, err);
  if (cmd == "report") return report_main(rest, out, err);
  if (cmd == "diff") return diff_main(rest, out, err);
  if (cmd == "overhead") return overhead_main(rest, out, err);
  if (cmd == "list") {
    if (!flags::Parser("msprof list", msprof_usage()).parse(rest, err)) {
      return 1;
    }
    for (const std::string& n : workload_names()) out << n << "\n";
    return 0;
  }
  err << "msprof: unknown command '" << cmd << "'\n" << msprof_usage();
  return 1;
}

}  // namespace ms::prof
