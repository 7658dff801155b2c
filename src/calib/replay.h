// Replay validation: the loop-closing half of `msdiag calibrate`.
//
// A fit is only trustworthy if the simulator, re-run with the fitted
// parameters, reproduces the trace it was fitted to. Replay applies the
// fit to the base JobConfig, re-simulates one iteration, and compares
//  * the end-to-end step time (relative error against a tolerance), and
//  * the §5.2 blame tiling — per-cause shares of the critical path from
//    diag::analyze_spans on both sides — so a fit that nails the total by
//    cancelling errors between compute and communication still fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "calib/fit.h"
#include "core/time.h"
#include "diag/timeline.h"
#include "engine/job.h"

namespace ms::calib {

/// Per-cause share of the critical path on both sides of the replay.
struct CauseShare {
  std::string cause;      ///< diag::segment_kind_name
  double trace_share = 0;  ///< fraction of the traced step's makespan
  double sim_share = 0;    ///< fraction of the replayed step's makespan
  double delta() const { return sim_share - trace_share; }
};

struct ReplayResult {
  bool ok = false;
  std::string error;  ///< set when replay could not run

  TimeNs trace_step = 0;  ///< makespan of the ingested trace
  TimeNs sim_step = 0;    ///< makespan of the re-simulated iteration
  double rel_error = 0;   ///< |sim - trace| / trace
  double tolerance = 0;
  bool within_tolerance = false;

  std::vector<CauseShare> shares;  ///< sorted by cause name (deterministic)
  double max_share_delta = 0;      ///< worst per-cause tiling disagreement

  std::uint64_t digest = 0;  ///< FNV-1a over the comparison (determinism)
};

/// Applies `report` to a copy of `base`, re-simulates, and compares against
/// the trace `spans` were ingested from. `tolerance` is the relative step-
/// time error the replay must beat to count as validated.
ReplayResult replay_fit(const std::vector<diag::TraceSpan>& spans,
                        const CalibrationReport& report,
                        const engine::JobConfig& base, double tolerance);

/// Human-readable comparison: step times + per-cause share table.
std::string replay_table(const ReplayResult& r);

/// One `calib_replay` JSONL record.
std::string replay_jsonl(const ReplayResult& r);

}  // namespace ms::calib
