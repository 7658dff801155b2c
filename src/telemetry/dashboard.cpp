#include "telemetry/dashboard.h"

#include <algorithm>
#include <sstream>

#include "core/table.h"
#include "core/units.h"

namespace ms::telemetry {

namespace {

using Interval = std::pair<TimeNs, TimeNs>;

/// Sorts + merges overlapping intervals in place; returns total length.
TimeNs merge_intervals(std::vector<Interval>& iv) {
  if (iv.empty()) return 0;
  std::sort(iv.begin(), iv.end());
  std::vector<Interval> merged;
  merged.push_back(iv.front());
  for (std::size_t i = 1; i < iv.size(); ++i) {
    if (iv[i].first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv[i].second);
    } else {
      merged.push_back(iv[i]);
    }
  }
  iv = std::move(merged);
  TimeNs total = 0;
  for (const auto& [a, b] : iv) total += b - a;
  return total;
}

/// Length of the part of (sorted, disjoint) `a` covered by (sorted,
/// disjoint) `b`.
TimeNs covered_length(const std::vector<Interval>& a,
                      const std::vector<Interval>& b) {
  TimeNs total = 0;
  std::size_t j = 0;
  for (const auto& [lo, hi] : a) {
    while (j < b.size() && b[j].second <= lo) ++j;
    for (std::size_t k = j; k < b.size() && b[k].first < hi; ++k) {
      total += std::max<TimeNs>(
          0, std::min(hi, b[k].second) - std::max(lo, b[k].first));
    }
  }
  return total;
}

bool is_compute_tag(const std::string& tag) {
  return tag == "fwd" || tag == "bwd" || tag == "optimizer";
}

bool is_comm_tag(const std::string& tag) {
  return tag == "pp-comm" || tag == "dp-comm";
}

}  // namespace

const StepReport& TrainingDashboard::record_step(
    const engine::JobConfig& cfg, const engine::IterationResult& result) {
  StepReport step;
  step.step = static_cast<int>(steps_.size());
  step.iteration_time = result.iteration_time;
  step.mfu = result.mfu;
  step.tokens_per_second = result.tokens_per_second;
  step.data_exposed = result.breakdown.data_pipeline;
  step.optimizer = result.breakdown.optimizer;

  // Exposed vs. overlapped comm: wall-clock occupied by comm spans, split
  // by whether any compute stream was busy at the same instant.
  std::vector<Interval> compute, comm;
  TimeNs pipeline_start = result.iteration_time, pipeline_end = 0;
  for (const auto& rec : result.spans) {
    if (rec.end <= rec.start) continue;
    if (is_compute_tag(rec.tag)) {
      compute.push_back({rec.start, rec.end});
      if (rec.tag != "optimizer") {
        pipeline_start = std::min(pipeline_start, rec.start);
        pipeline_end = std::max(pipeline_end, rec.end);
      }
    } else if (is_comm_tag(rec.tag)) {
      comm.push_back({rec.start, rec.end});
    }
  }
  merge_intervals(compute);
  step.comm_total = merge_intervals(comm);
  step.comm_overlapped = covered_length(comm, compute);
  step.comm_exposed = step.comm_total - step.comm_overlapped;

  // Pipeline bubble: fraction of the 1F1B window each stage's compute
  // stream spends idle, averaged over stages.
  if (pipeline_end > pipeline_start && cfg.par.pp > 0) {
    const double window = static_cast<double>(pipeline_end - pipeline_start);
    std::vector<TimeNs> busy(static_cast<std::size_t>(cfg.par.pp), 0);
    for (const auto& rec : result.spans) {
      if (!engine::is_compute_stream(rec.stream)) continue;
      if (rec.tag != "fwd" && rec.tag != "bwd") continue;
      const int stage = engine::stage_of_stream(rec.stream);
      if (stage >= cfg.par.pp) continue;  // data-pipeline stream
      busy[static_cast<std::size_t>(stage)] +=
          std::min(rec.end, pipeline_end) - std::max(rec.start, pipeline_start);
    }
    double bubble_sum = 0;
    for (TimeNs b : busy) bubble_sum += 1.0 - static_cast<double>(b) / window;
    step.bubble_fraction = bubble_sum / static_cast<double>(cfg.par.pp);
  }

  steps_.push_back(step);

  if (registry_ != nullptr) {
    auto& m = *registry_;
    m.gauge("dashboard_mfu").set(step.mfu);
    m.gauge("dashboard_bubble_fraction").set(step.bubble_fraction);
    m.gauge("dashboard_comm_exposed_seconds")
        .set(to_seconds(step.comm_exposed));
    m.gauge("dashboard_comm_overlapped_seconds")
        .set(to_seconds(step.comm_overlapped));
    m.histogram("dashboard_step_seconds")
        .observe(to_seconds(step.iteration_time));
  }
  return steps_.back();
}

void TrainingDashboard::add_machine_sample(int machine,
                                           const std::string& phase,
                                           double seconds) {
  heatmap_.add_sample(machine, phase, seconds);
  machines_.insert(machine);
}

void TrainingDashboard::record_health(const ft::RunReport& report) {
  health_ = report;
  has_health_ = true;
  if (registry_ != nullptr) {
    auto& m = *registry_;
    m.gauge("dashboard_effective_time_ratio")
        .set(report.effective_time_ratio);
    m.gauge("dashboard_auto_detected_fraction")
        .set(report.auto_detected_fraction);
  }
}

void TrainingDashboard::record_diagnosis(const diag::StepDiagnosis& diagnosis) {
  diag_ = diagnosis;
  has_diag_ = true;
  if (registry_ != nullptr) {
    auto& m = *registry_;
    m.gauge("diag_critical_path_seconds").set(to_seconds(diagnosis.makespan));
    for (const auto& entry : diagnosis.blame) {
      Labels labels{{"cause", diag::segment_kind_name(entry.cause)},
                    {"rank", std::to_string(entry.rank)}};
      if (!entry.link.empty()) labels.push_back({"link", entry.link});
      m.counter("diag_blame_total", labels).add(to_seconds(entry.total));
    }
  }
}

double TrainingDashboard::mean_mfu() const {
  if (steps_.empty()) return 0;
  double sum = 0;
  for (const auto& s : steps_) sum += s.mfu;
  return sum / static_cast<double>(steps_.size());
}

std::vector<int> TrainingDashboard::straggler_machines(
    double threshold) const {
  return heatmap_.outliers(threshold);
}

double TrainingDashboard::worst_straggler_delta() const {
  if (machines_.size() < 2) return 0;
  // Normalize each machine by the per-phase median, average over phases
  // (the heatmap's scoring, reconstructed from its public means).
  const auto phases = heatmap_.phases();
  if (phases.empty()) return 0;
  std::vector<double> scores;
  for (int machine : machines_) {
    double score = 0;
    int counted = 0;
    for (const auto& phase : phases) {
      std::vector<double> col;
      for (int m : machines_) col.push_back(heatmap_.mean(m, phase));
      std::nth_element(col.begin(), col.begin() + col.size() / 2, col.end());
      const double median = col[col.size() / 2];
      if (median <= 0) continue;
      score += heatmap_.mean(machine, phase) / median;
      ++counted;
    }
    if (counted > 0) scores.push_back(score / counted);
  }
  if (scores.size() < 2) return 0;
  std::vector<double> sorted = scores;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  const double worst = *std::max_element(scores.begin(), scores.end());
  return median > 0 ? worst / median - 1.0 : 0;
}

std::string TrainingDashboard::report() const {
  std::ostringstream out;
  out << "=== training dashboard (" << steps_.size() << " step"
      << (steps_.size() == 1 ? "" : "s") << ") ===\n";

  Table t({"metric", "value"});
  if (!steps_.empty()) {
    const StepReport& last = steps_.back();
    TimeNs iter_sum = 0, exposed_sum = 0, overlapped_sum = 0;
    double bubble_sum = 0;
    for (const auto& s : steps_) {
      iter_sum += s.iteration_time;
      exposed_sum += s.comm_exposed;
      overlapped_sum += s.comm_overlapped;
      bubble_sum += s.bubble_fraction;
    }
    const double n = static_cast<double>(steps_.size());
    const TimeNs comm_sum = exposed_sum + overlapped_sum;
    t.add_row({"MFU (mean / last)", Table::fmt_pct(mean_mfu()) + " / " +
                                        Table::fmt_pct(last.mfu)});
    t.add_row({"iteration time (mean)",
               format_duration(static_cast<TimeNs>(
                   static_cast<double>(iter_sum) / n))});
    t.add_row({"tokens/s (last)",
               Table::fmt(last.tokens_per_second / mega(1.0), 2) + "M"});
    t.add_row({"comm time exposed (mean)",
               format_duration(static_cast<TimeNs>(
                   static_cast<double>(exposed_sum) / n))});
    t.add_row({"comm time overlapped (mean)",
               format_duration(static_cast<TimeNs>(
                   static_cast<double>(overlapped_sum) / n))});
    t.add_row({"comm overlap ratio",
               comm_sum > 0 ? Table::fmt_pct(
                                  static_cast<double>(overlapped_sum) /
                                  static_cast<double>(comm_sum))
                            : "-"});
    t.add_row({"pipeline bubble fraction (mean)",
               Table::fmt_pct(bubble_sum / n)});
    t.add_row({"exposed data time (last)", format_duration(last.data_exposed)});
  }
  if (!machines_.empty()) {
    t.add_separator();
    t.add_row({"machines observed",
               Table::fmt_int(static_cast<long long>(machines_.size()))});
    const auto stragglers = straggler_machines();
    std::string list;
    for (int m : stragglers) {
      if (!list.empty()) list += ' ';
      list += std::to_string(m);
    }
    t.add_row({"straggler machines", stragglers.empty() ? "none" : list});
    t.add_row({"worst straggler delta",
               Table::fmt_pct(worst_straggler_delta())});
  }
  if (has_diag_) {
    t.add_separator();
    t.add_row({"critical path", format_duration(diag_.makespan)});
    if (!diag_.blame.empty()) {
      const auto& top = diag_.blame.front();
      std::string who = diag_.blame.front().link.empty()
                            ? "rank " + std::to_string(top.rank)
                            : "link " + top.link;
      t.add_row({"top blame",
                 std::string(diag::segment_kind_name(top.cause)) + " (" + who +
                     "): " + format_duration(top.total) + " / " +
                     Table::fmt_pct(top.share)});
    }
  }
  if (registry_ != nullptr) {
    // Sketch-range overflow is a data-quality alarm: any nonzero count
    // means some histogram is clamping its tail quantiles.
    double overflow_total = 0;
    for (const auto& s : registry_->snapshot().samples) {
      if (s.name == "telemetry_sketch_overflow_total") overflow_total += s.value;
    }
    if (overflow_total > 0) {
      t.add_separator();
      t.add_row({"sketch overflow samples (!)",
                 Table::fmt_int(static_cast<long long>(overflow_total))});
    }
  }
  if (has_health_) {
    t.add_separator();
    t.add_row({"restarts", Table::fmt_int(health_.restarts)});
    t.add_row({"auto detected", Table::fmt_pct(health_.auto_detected_fraction)});
    t.add_row({"auto diagnosed",
               Table::fmt_pct(health_.auto_diagnosed_fraction)});
    t.add_row({"mean detect latency",
               format_duration(health_.mean_detect_latency)});
    t.add_row({"checkpoints taken", Table::fmt_int(health_.checkpoints_taken)});
    t.add_row({"effective training time",
               Table::fmt_pct(health_.effective_time_ratio)});
  }
  out << t.to_string();
  return out.str();
}

}  // namespace ms::telemetry
