// Shared configuration for chaos runs (scenario generators + runner).
#pragma once

#include <cstdint>

#include "core/time.h"
#include "core/units.h"
#include "ft/diagnostics.h"
#include "ft/monitor.h"
#include "net/flap.h"

namespace ms::telemetry {
class MetricsRegistry;
}  // namespace ms::telemetry

namespace ms::diag {
class FlightRecorder;
}  // namespace ms::diag

namespace ms::chaos {

struct ChaosConfig {
  // ---- cluster under test ---------------------------------------------
  int nodes = 16;
  int spares = 2;
  /// Wall-clock window the campaign simulates.
  TimeNs duration = hours(2.0);
  TimeNs checkpoint_interval = minutes(30.0);

  // ---- recovery machinery (feeds ft::DriverSimConfig) -----------------
  ft::DetectorConfig detector;
  ft::SuiteConfig suite;
  TimeNs evict_replenish_time = minutes(3.0);
  TimeNs restore_time = minutes(2.0);
  TimeNs manual_analysis_time = minutes(10.0);
  TimeNs node_repair_time = hours(6.0);

  // ---- network under test ---------------------------------------------
  /// Retransmit behaviour during link flaps (§3.6; adaptive retransmission
  /// is the paper's fix — default here is the untuned NIC, so flap
  /// scenarios exercise the NCCL-timeout failure path).
  net::RetransConfig retrans;
  /// The transfer a flap interrupts: one all-gather shard per pipeline
  /// stage at NIC line rate.
  Bytes flap_transfer_bytes = 256_MiB;
  Bandwidth link_bw = gbps(200);
  /// Fraction of a healthy step spent on the fabric; scales how hard PFC
  /// storms and ECMP conflicts stretch the critical path.
  double comm_fraction = 0.3;

  // ---- scoring / oracle ------------------------------------------------
  /// Oracle floor: a run whose effective-time ratio lands below this is a
  /// campaign failure. Disabled (0) by default: the compressed 2 h window
  /// with minutes-scale MTBF sits far below the paper's >0.9 production
  /// figure, and a dense Poisson schedule can legitimately drain the spare
  /// pool and pin the fleet for the rest of the window. Golden-scenario
  /// tests bound the per-scenario ratios instead; set a floor explicitly
  /// when a scenario has a meaningful one.
  double min_effective_ratio = 0.0;
  /// A fail-stop counts as undetected only if the fleet spent at least
  /// this much time back in training after the injection with no incident
  /// ever raised for the node. Less than that and the window simply ended
  /// (or earlier recoveries monopolized it) before detection could fire.
  /// A live detector needs well under a minute (heartbeat timeout 35 s +
  /// one sweep), so five minutes convicts only a dead path.
  TimeNs detection_grace = minutes(5.0);

  /// Deliberately weakened recovery path (the seeded canary regression):
  /// heartbeat-timeout detection is disabled, so hung hosts are never
  /// found. Campaigns against the canary must fail and must shrink to the
  /// hang fault. Set by chaos_campaign's --canary; tests set it directly.
  bool canary = false;

  /// Seed fan-out width for run_campaign. 0 = auto (hardware concurrency),
  /// 1 = serial. Parallel fan-out only engages when `metrics` and `flight`
  /// are both null: those sinks record in run order, and keeping them on a
  /// single thread is what keeps metric registration order and flight-dump
  /// interleaving deterministic. Results are slot-indexed by seed, so the
  /// campaign output is bit-identical at any width.
  int parallel_seeds = 0;

  /// Optional telemetry (not owned): chaos_runs_total{scenario,outcome},
  /// per-scenario recovery-latency histograms, effective-ratio gauges.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Optional flight recorder (not owned): fault injections and the driver
  /// sim's heartbeat/alarm/recovery stream are ring-buffered, and every
  /// detected anomaly freezes a post-mortem dump for msdiag.
  diag::FlightRecorder* flight = nullptr;
};

}  // namespace ms::chaos
