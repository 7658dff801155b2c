// Per-step training dashboard (MegaScale §5: the report the production
// dashboards roll per-machine metrics into).
//
// Feed it iteration results (with telemetry-instrumented spans), per-machine
// latency samples, and fault-tolerance run reports; it derives the §5-style
// health view: MFU, exposed vs. overlapped communication time, pipeline
// bubble fraction, per-machine straggler deltas, and heartbeat-derived
// availability — then renders everything as one report table.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "core/time.h"
#include "diag/blame.h"
#include "diag/heatmap.h"
#include "engine/job.h"
#include "ft/workflow.h"
#include "telemetry/metrics.h"

namespace ms::telemetry {

/// Derived summary of one recorded training step.
struct StepReport {
  int step = 0;
  TimeNs iteration_time = 0;
  double mfu = 0;
  double tokens_per_second = 0;
  /// Wall-clock occupied by communication spans (union across streams)...
  TimeNs comm_total = 0;
  /// ...split into the part hidden under compute and the exposed rest.
  TimeNs comm_overlapped = 0;
  TimeNs comm_exposed = 0;
  /// Mean fraction of the 1F1B window each stage's compute stream idles.
  double bubble_fraction = 0;
  TimeNs data_exposed = 0;
  TimeNs optimizer = 0;
};

class TrainingDashboard {
 public:
  /// `registry` (optional, not owned): step summaries are mirrored into it
  /// as gauges/histograms so the exporters serve the dashboard's view too.
  explicit TrainingDashboard(MetricsRegistry* registry = nullptr)
      : registry_(registry) {}

  /// Digests one simulated iteration into a StepReport (also returned).
  const StepReport& record_step(const engine::JobConfig& cfg,
                                const engine::IterationResult& result);

  /// Per-machine critical-segment latency (the §5.1 CUDA-event stream).
  void add_machine_sample(int machine, const std::string& phase,
                          double seconds);

  /// Fault-tolerance outcome of the run (heartbeat-derived health).
  void record_health(const ft::RunReport& report);

  /// Critical-path diagnosis of a step (diag::analyze_spans). Blame totals
  /// are mirrored as diag_blame_total{cause,rank[,link]} counters and the
  /// top culprit joins the report table (§5.2).
  void record_diagnosis(const diag::StepDiagnosis& diagnosis);

  const std::vector<StepReport>& steps() const { return steps_; }
  double mean_mfu() const;

  /// Machines whose normalized latency exceeds the median by `threshold`.
  std::vector<int> straggler_machines(double threshold = 0.05) const;
  /// Worst machine's latency delta vs. the fleet median (0 if < 2 machines).
  double worst_straggler_delta() const;

  /// The §5-style report table (throughput, overlap, bubbles, stragglers,
  /// health), ready to print.
  std::string report() const;

 private:
  MetricsRegistry* registry_;
  std::vector<StepReport> steps_;
  diag::PerformanceHeatmap heatmap_;
  std::set<int> machines_;
  bool has_health_ = false;
  ft::RunReport health_;
  bool has_diag_ = false;
  diag::StepDiagnosis diag_;
};

}  // namespace ms::telemetry
