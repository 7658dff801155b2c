// Shared configuration for the bench binaries: paper-faithful job configs,
// a fabric-derived network-efficiency model, and the canonical BENCH_*.json
// artifact every bench emits for tools/bench_gate.py.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "check/audit.h"
#include "check/digest.h"
#include "core/json.h"
#include "engine/job.h"
#include "engine/perturb.h"
#include "plan/planner.h"

namespace ms::bench {

/// Canonical machine-readable bench artifact. Every bench binary builds one
/// of these next to its human tables and calls write() before exiting, so
/// CI always finds BENCH_<name>.json in the working directory and
/// tools/bench_gate.py can diff it against bench/baselines/.
///
///   {"bench": "...", "config": {...}, "metrics": {...},
///    "tolerances": {...}, "info": {...}, "digest": "0x..."}
///
/// `metrics` are regression-gated (each with a per-metric relative
/// tolerance); `info` values are recorded but never gated (wall-clock,
/// host-dependent numbers); `config` pins the shape that produced them.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void config(const std::string& key, double value) {
    config_[key] = fmt_number(value);
  }
  void config(const std::string& key, const std::string& value) {
    config_[key] = '"' + json::escape(value) + '"';
  }

  /// Gated metric: bench_gate fails when a fresh run drifts more than
  /// rel_tol (relative) from the committed baseline.
  void metric(const std::string& key, double value, double rel_tol = 0.05) {
    metrics_[key] = value;
    tolerances_[key] = rel_tol;
  }

  /// Ungated context (wall-clock, machine-dependent values).
  void info(const std::string& key, double value) { info_[key] = value; }

  std::string to_json() const {
    check::Digest d;
    d.fold(std::string_view(name_));
    for (const auto& [key, value] : metrics_) {
      d.fold(std::string_view(key));
      // Fold the rendered decimal, not raw bits: survives JSON round-trips.
      d.fold(std::string_view(fmt_number(value)));
    }
    std::string out = "{\"bench\":\"" + json::escape(name_) + "\"";
    out += ",\"config\":" + raw_object(config_);
    out += ",\"metrics\":" + num_object(metrics_);
    out += ",\"tolerances\":" + num_object(tolerances_);
    out += ",\"info\":" + num_object(info_);
    char digest[24];
    std::snprintf(digest, sizeof(digest), "0x%016llx",
                  static_cast<unsigned long long>(d.value()));
    out += std::string(",\"digest\":\"") + digest + "\"}";
    return out;
  }

  /// Writes BENCH_<name>.json in the current directory. Returns false if
  /// the file cannot be written or if any MS_AUDIT invariant failed during
  /// the run; each failed invariant is printed as a GATE FAIL line.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) return false;
    out << to_json() << '\n';
    return static_cast<bool>(out) && audit_clean();
  }

 private:
  static bool audit_clean() {
    const check::Auditor& auditor = check::Auditor::instance();
    if (auditor.violations() == 0) return true;
    std::fprintf(stderr, "GATE FAIL: %llu MS_AUDIT violations\n",
                 static_cast<unsigned long long>(auditor.violations()));
    for (const check::Violation& v : auditor.snapshot()) {
      std::fprintf(stderr, "  %s/%s x%llu: %s\n", v.domain.c_str(),
                   v.invariant.c_str(),
                   static_cast<unsigned long long>(v.count), v.message.c_str());
    }
    return false;
  }

  static std::string fmt_number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  static std::string raw_object(const std::map<std::string, std::string>& m) {
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : m) {
      if (!first) out += ',';
      first = false;
      out += '"' + json::escape(key) + "\":" + value;
    }
    return out + "}";
  }
  static std::string num_object(const std::map<std::string, double>& m) {
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : m) {
      if (!first) out += ',';
      first = false;
      out += '"' + json::escape(key) + "\":" + fmt_number(value);
    }
    return out + "}";
  }

  std::string name_;
  std::map<std::string, std::string> config_;
  std::map<std::string, double> metrics_;
  std::map<std::string, double> tolerances_;
  std::map<std::string, double> info_;
};

/// Effective network efficiency at a given cluster size, derived from the
/// ECMP conflict analysis: a CLOS fabric proportional to the job is built,
/// permutation traffic is routed, and the mean attained throughput fraction
/// becomes the collective model's bandwidth derating. Larger jobs span more
/// pods, ascend more tiers and collide more — the §3.6/§6.1 scale effect.
/// The derivation lives with the plan auto-tuner (plan/planner.h) so
/// `msplan --net-eff auto` and the Table 2 benches price the fabric
/// identically.
inline double network_efficiency_for(int gpus) {
  return plan::fabric_network_efficiency(gpus);
}

/// Megatron-LM baseline: serial transformer block, full attention, naive
/// attention/LayerNorm/GeLU kernels, no MegaScale overlap.
inline engine::JobConfig megatron_175b(int gpus, int batch) {
  engine::JobConfig cfg;
  cfg.model = model::config_175b();
  cfg.par = parallel::ParallelConfig{.tp = 8, .pp = 8, .dp = gpus / 64,
                                     .vpp = 6};
  cfg.global_batch = batch;
  cfg.ops = model::OperatorProfile::megatron_baseline();
  cfg.overlap = engine::OverlapOptions::megatron_lm();
  cfg.network_efficiency = network_efficiency_for(gpus);
  return cfg;
}

/// Full MegaScale: PTB + SWA + FlashAttention-2 + fused kernels + all
/// overlap techniques + async data pipeline.
inline engine::JobConfig megascale_175b(int gpus, int batch) {
  engine::JobConfig cfg = megatron_175b(gpus, batch);
  cfg.model.parallel_block = true;
  cfg.model.attention = model::AttentionKind::kSlidingWindow;
  cfg.model.window = 512;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = engine::OverlapOptions::megascale();
  return cfg;
}

/// 530B variants (Table 1: 105 layers, hidden 20480, TP 8, PP 35, vpp 3).
inline engine::JobConfig megatron_530b(int gpus, int batch) {
  engine::JobConfig cfg;
  cfg.model = model::config_530b();
  cfg.par = parallel::ParallelConfig{.tp = 8, .pp = 35, .dp = gpus / 280,
                                     .vpp = 3};
  cfg.global_batch = batch;
  cfg.ops = model::OperatorProfile::megatron_baseline();
  cfg.overlap = engine::OverlapOptions::megatron_lm();
  cfg.network_efficiency = network_efficiency_for(gpus);
  return cfg;
}

inline engine::JobConfig megascale_530b(int gpus, int batch) {
  engine::JobConfig cfg = megatron_530b(gpus, batch);
  cfg.model.parallel_block = true;
  cfg.model.attention = model::AttentionKind::kSlidingWindow;
  cfg.model.window = 512;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = engine::OverlapOptions::megascale();
  return cfg;
}

/// `base` (an iteration of `cfg`) folded with a deterministic sample of the
/// production cluster's machine-speed population (§5.1: stochastic
/// scheduling over a fleet with ~0.5% slow hosts). Seed fixed so tables
/// are reproducible.
inline engine::StragglerFold fold_with_cluster(
    const engine::IterationResult& base, const engine::JobConfig& cfg) {
  engine::StragglerPopulation pop;
  pop.slow_fraction = 0.005;
  pop.slow_factor = 1.10;
  pop.jitter_sigma = 0.01;
  Rng rng(0xC1D5);
  const int machines = cfg.gpus() / cfg.cluster.gpus_per_node;
  auto speeds = engine::sample_machine_speeds(machines, pop, rng);
  return engine::fold_stragglers(base, cfg, speeds);
}

/// One simulated iteration of `cfg`, folded with the same sample.
inline engine::StragglerFold run_with_cluster(const engine::JobConfig& cfg) {
  return fold_with_cluster(engine::simulate_iteration(cfg), cfg);
}

}  // namespace ms::bench
