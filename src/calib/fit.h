// Parameter fitting against an ingested trace (the calibration half of
// ROADMAP item 5; PrismLLM/RAPID-LLM-style model calibration).
//
// The insight that makes this a *linear* least-squares problem: every
// duration the analytic model produces is linear in the inverse unknowns —
//   compute span  ≈ G·(1/gemm_eff) + A·(1/attn_eff) + M·(1/mem_eff) + F
//   collective    ≈ L·alpha + S_eff·(1/bandwidth)
// where (G, A, M, F) are per-class features extracted by probing the
// repo's own OpCostModel (so features cannot drift from the cost model),
// and (L, S_eff) are the ring-collective design coefficients from
// classify.h. Fitting recovers operator efficiencies and per-domain α–β
// parameters; residuals are reported per class with worst offenders, and
// degenerate systems (one collective class, collinear sizes, empty traces)
// are flagged — never NaN (lsq.h).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "calib/classify.h"
#include "collective/comm.h"
#include "core/time.h"
#include "diag/timeline.h"
#include "engine/job.h"

namespace ms::calib {

struct OperatorFit {
  bool fitted = false;
  bool degenerate = false;  ///< rank-deficient system; values are ridge'd
  bool ridge_used = false;
  int samples = 0;
  double gemm_efficiency = 0;
  double attention_efficiency = 0;
  /// Attained fraction of nominal HBM bandwidth (elementwise/optimizer
  /// kernels); multiplies GpuSpec::hbm_bw on apply.
  double memory_efficiency = 0;
  std::string note;  ///< why not fitted / what was degenerate
};

struct CollectiveFit {
  collective::Domain domain = collective::Domain::kInterNode;
  bool fitted = false;
  bool degenerate = false;
  bool ridge_used = false;
  int samples = 0;
  TimeNs alpha = 0;        ///< per-hop latency
  Bandwidth bandwidth = 0; ///< effective bus/fabric bandwidth per rank
  std::string note;
};

struct ClassResidual {
  std::string cls;
  int samples = 0;
  TimeNs observed_total = 0;
  TimeNs modeled_total = 0;
  /// RMS of per-span relative errors (|model − observed| / observed).
  double rel_rms = 0;
  double worst_rel = 0;
  std::string worst_span;  ///< "name@rank start=..." of the worst offender
  bool fitted = false;     ///< false for coverage-only classes (kernel:*)
};

struct CalibrationReport {
  bool ok = false;
  std::string error;  ///< set when !ok (empty trace, nothing fittable)

  OperatorFit ops;
  std::vector<CollectiveFit> coll;  ///< one entry per domain with samples
  std::vector<ClassResidual> residuals;

  /// Pooled relative-RMS residual over every fitted span.
  double fit_rel_rms = 0;
  std::size_t spans_total = 0;
  std::size_t spans_fitted = 0;
  std::size_t spans_other = 0;
  TimeNs trace_makespan = 0;

  /// Order-sensitive FNV-1a over classes, counts and fitted parameters —
  /// equal traces must produce equal digests (determinism gate).
  std::uint64_t digest = 0;
};

/// Fits operator and collective parameters to `spans`, using `base` for
/// the workload shape (model, parallelism, nominal cluster) the features
/// are derived from.
CalibrationReport fit_trace(const std::vector<diag::TraceSpan>& spans,
                            const engine::JobConfig& base);

/// Writes the fitted parameters back into a JobConfig: operator
/// efficiencies into OperatorProfile, α–β into the cluster spec
/// (network_efficiency / nic_bw for inter-node, nvlink for intra-node).
/// Unfitted or degenerate parameter groups are left untouched.
void apply_fit(const CalibrationReport& report, engine::JobConfig& cfg);

/// Human-readable report: fitted parameters + per-class residual table.
std::string report_table(const CalibrationReport& report);

/// Machine-readable JSONL: one `calib_params` line, one `calib_residual`
/// line per class (the artifact CI uploads).
std::string report_jsonl(const CalibrationReport& report);

}  // namespace ms::calib
