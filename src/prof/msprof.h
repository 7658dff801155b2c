// msprof — the simulator self-profiling workflow as a CLI (library half).
//
//   msprof run <workload> [--top K] [--repeat N] [--json out.jsonl]
//                         [--trace out.json] [--prom out.prom]
//       profile a named workload; print the ranked hot-spot table and
//       optionally write the JSONL report, a Perfetto self-trace (track =
//       the simulator process) and a Prometheus exposition snapshot
//   msprof report <profile.jsonl> [--top K]
//       re-render a stored profile artifact
//   msprof diff <base.jsonl> <cand.jsonl> [--top K]
//       compare two profiles scope-by-scope (the before/after view for
//       ROADMAP item-2 hot-loop work)
//   msprof overhead [--workload W] [--repeat N] [--budget F]
//       measure the enabled-vs-dormant cost of MS_PROF on a workload;
//       exits nonzero when it exceeds the budget (default 3%), or when
//       the workload digest is 0 or moves with profiling enabled
//   msprof list
//       named workloads
//
// The entry point takes argv-style strings and writes to caller-supplied
// streams — tests drive it exactly like the shell does (msdiag pattern).
//
// The workloads are the benches' own code: bench/micro_engine.cpp runs
// run_micro_engine and bench/fig11_production_run.cpp runs
// run_fig11_pipeline, so each gated baseline and its profile describe the
// same program.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "chaos/schedule.h"
#include "core/time.h"
#include "core/units.h"
#include "diag/blame.h"
#include "diag/timeline.h"
#include "engine/job.h"
#include "engine/perturb.h"
#include "ft/workflow.h"
#include "telemetry/aggregator.h"
#include "telemetry/ledger.h"

namespace ms::prof {

/// Deterministic outcome of one workload run (wall time excluded on
/// purpose: everything here must be bit-identical run to run).
struct WorkloadResult {
  std::uint64_t events = 0;      // engine events executed (micro_engine)
  std::uint64_t peak_queue = 0;  // queue-depth high-water mark (micro_engine)
  std::uint64_t digest = 0;      // nonzero fold of the workload's outputs
};

/// The micro_engine workload: pure sim::Engine churn in two phases —
/// self-rescheduling chains (micro.churn) and a deep pre-seeded queue
/// (micro.fanout). This is the ROADMAP item-2 baseline workload:
/// BENCH_micro_engine.json gates its events/sec and event counts.
struct MicroEngineConfig {
  int chains = 8;               // concurrent self-rescheduling chains
  int chain_events = 150000;    // events per chain
  int fanout_events = 300000;   // pre-seeded queue depth
};
WorkloadResult run_micro_engine(const MicroEngineConfig& cfg = {});

/// Figure-11 shape: 12,288 GPUs at global batch 6144 for eight weeks.
constexpr int kFig11Gpus = 12288;
constexpr int kFig11Batch = 6144;
constexpr TimeNs kFig11Duration = days(56.0);
constexpr TimeNs kFig11Mtbf = hours(9.0);

/// The fig11_step workload: `job` simulated once with a tracer attached,
/// and that same result folded through the cluster's machine-speed sample
/// (bench::fold_with_cluster). Scope fig11.steady_step.
struct SteadyStep {
  engine::IterationResult base;
  engine::StragglerFold fold;
  std::vector<diag::TraceSpan> trace;  ///< one span per op of `base`
};
SteadyStep run_steady_step(engine::JobConfig job);

/// The fig11_production_run workload: the steady step, then its
/// critical-path diagnosis, the fault draw, the chaos overlay (checkpoint
/// stalls, link flaps, straggler windows), the ft replay, the run ledger,
/// the dashboard and a 12,288-leaf aggregation tree, each phase under its
/// own fig11.* scope.
struct Fig11Result {
  SteadyStep step;
  diag::StepDiagnosis diagnosis;  ///< of step.trace
  chaos::FaultSchedule schedule;  ///< ft fail-stops + the chaos overlay
  ft::RunReport report;
  TimeNs overlay_stall = 0;  ///< ckpt stalls + link flaps, beyond ft's model
  telemetry::LedgerSeries series;
  std::string dashboard;  ///< rendered TrainingDashboard report
  int hosts = 0;
  int pods = 0;
  TimeNs flush_interval = 0;
  Bytes rank_sketch_bytes = 0;
  int fabric_links = 0;
  std::size_t fabric_series = 0;
  Bytes fabric_sketch_bytes = 0;  ///< rides each host leader's submission
  telemetry::FlushReport flush;   ///< the cold flush of every rank
  std::vector<telemetry::FlushReport> sparse;  ///< 4 more, 1/32 of hosts each
  /// Folds the ledger, tree-root, diagnosis and schedule digests + restarts.
  std::uint64_t digest = 0;
};
Fig11Result run_fig11_pipeline();

/// Names accepted by run_workload / `msprof run` / `msprof overhead`.
std::vector<std::string> workload_names();

/// Runs a workload by name. Returns false for an unknown name.
bool run_workload(const std::string& name, WorkloadResult& out);

/// Runs one msprof command. Returns a process exit code (0 = success,
/// 1 = bad usage / failed load / budget exceeded).
int msprof_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);

/// Usage text (also printed on bad invocations).
std::string msprof_usage();

}  // namespace ms::prof
