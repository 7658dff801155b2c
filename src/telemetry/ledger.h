// RunLedger — long-horizon goodput/ETTR accounting (MegaScale Figure 11).
//
// The paper's headline operability number is not per-step MFU but what a
// multi-week production run *kept*: effective-training-time ratio above
// 90% across 100+ restarts, with checkpoint overhead and fault recovery
// accounted against the clock. The ledger is that accountant: it consumes
// engine step records (the steady-state rate), ft workflow/driver-sim
// incidents (detection + recovery windows, lost progress), checkpoint
// stalls, fabric stalls and straggler slowdown windows, and decomposes a
// simulated run into a per-interval time series of goodput, MFU, ETTR,
// restart count and lost-time-by-cause.
//
// Accounting contract (pinned by tests/ledger_test.cpp): ingesting an
// ft::RunReport reproduces the workflow's own effective-time arithmetic —
// the ledger's ETTR equals report.effective_time_ratio, interval rows are
// a partition of the window, and the whole series digests deterministically
// (same seed + schedule => identical ledger).
//
// Series serialize to JSONL (ms::json-parseable, diffable between runs)
// and render through the `msdiag ledger` subcommand.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/time.h"
#include "diag/blame.h"
#include "engine/job.h"
#include "ft/workflow.h"

namespace ms::telemetry {

/// Where lost time went. "Hard" causes (everything except kStraggler)
/// subtract wall-clock from effective training time — they drive ETTR.
/// kStraggler is a rate loss: the clock keeps counting as effective but
/// tokens arrive slower, so it shows up in goodput only (matching the
/// paper, whose ETTR counts downtime/restarts, not silent slowness).
enum class LostCause {
  kDetection,     ///< fault struck -> alarm raised
  kRecovery,      ///< diagnose + evict/replenish + restore + re-init
  kLostProgress,  ///< redone work since the last checkpoint
  kCkptStall,     ///< training blocked on the checkpoint writer
  kFabricStall,   ///< link flap / PFC episode stalling the job
  kStraggler,     ///< slowdown window: goodput lost, clock still effective
};
constexpr int kLostCauseCount = 6;
const char* lost_cause_name(LostCause cause);

/// Healthy-run reference rate, from one simulated iteration.
struct SteadyState {
  TimeNs step_time = 0;
  double mfu = 0;
  double tokens_per_second = 0;
};

struct LedgerConfig {
  /// Simulated run length.
  TimeNs duration = hours(24.0);
  /// Reporting interval (one ledger row per interval).
  TimeNs interval = hours(1.0);
};

struct LedgerInterval {
  int index = 0;
  TimeNs begin = 0;
  TimeNs end = 0;
  /// In-window time not lost to any hard cause.
  TimeNs effective = 0;
  /// In-window lost time per cause (kStraggler entry holds the goodput-
  /// equivalent loss from slowdown windows).
  std::array<TimeNs, kLostCauseCount> lost{};
  int restarts = 0;
  double goodput_tokens_per_second = 0;
  double mfu = 0;
  /// Cumulative ETTR from t=0 through this interval's end.
  double ettr_cum = 1.0;
};

struct LedgerTotals {
  /// 1 - (hard lost time, unclipped) / duration. Matches the ft workflow's
  /// effective_time_ratio bit-for-bit when the ledger ingested its report.
  double ettr = 1.0;
  /// Unclipped lost time per cause (incidents near the window edge charge
  /// their full cost, exactly like the ft accounting).
  std::array<TimeNs, kLostCauseCount> lost{};
  int restarts = 0;
  double tokens_total = 0;
  /// Mean goodput over the run as a fraction of the steady-state rate.
  double goodput_fraction = 0;
  double mfu_mean = 0;
};

struct LedgerSeries {
  TimeNs duration = 0;
  TimeNs interval = 0;
  SteadyState steady;
  /// Within-step loss decomposition from diag::analyze (share of step
  /// makespan per segment kind) — the §5.2 view of where healthy time
  /// itself leaks.
  std::map<std::string, double> step_loss_shares;
  std::vector<LedgerInterval> intervals;
  LedgerTotals totals;
  /// Order-sensitive FNV-1a over every row; equal seeds => equal digests.
  std::uint64_t digest = 0;
};

class RunLedger {
 public:
  explicit RunLedger(const LedgerConfig& cfg);

  void set_steady_state(const SteadyState& steady);

  /// Replays an ft run report onto the timeline: per incident a detection
  /// window, a recovery window, a redo (lost-progress) window and a
  /// restart mark; checkpoint stalls at the same wall-clock points the
  /// workflow charged them. `checkpoint_interval` must match the
  /// WorkflowConfig the report came from.
  void ingest(const ft::RunReport& report, TimeNs checkpoint_interval);

  /// Hard lost-time window starting at `at` (clock stops being effective).
  void add_lost(TimeNs at, TimeNs duration, LostCause cause);
  /// Restart mark (counted per interval).
  void add_restart(TimeNs at);
  /// Slowdown window: job runs at 1/factor rate in [begin, end). Charged
  /// to kStraggler (or kFabricStall for fabric-degradation windows, which
  /// then reduces goodput rather than the clock).
  void add_slowdown(TimeNs begin, TimeNs end, double factor, LostCause cause);
  /// Within-step blame decomposition (share of makespan per cause).
  void record_step_diagnosis(const diag::StepDiagnosis& diagnosis);

  /// Tiles [0, duration) into intervals and computes the series. Pure:
  /// callable repeatedly as events accumulate.
  LedgerSeries finalize() const;

 private:
  struct LostEvent {
    TimeNs at = 0;
    TimeNs duration = 0;
    LostCause cause = LostCause::kDetection;
  };
  struct SlowdownWindow {
    TimeNs begin = 0;
    TimeNs end = 0;
    double factor = 1.0;
    LostCause cause = LostCause::kStraggler;
  };

  LedgerConfig cfg_;
  SteadyState steady_;
  std::map<std::string, double> step_loss_shares_;
  std::vector<LostEvent> lost_;
  std::vector<SlowdownWindow> slowdowns_;
  std::vector<TimeNs> restarts_;
};

/// Recomputes the series digest from its rows (what finalize() stored).
std::uint64_t ledger_digest(const LedgerSeries& series);

/// Serialization: one header line, one line per interval, one summary
/// line. Parse accepts exactly what to_jsonl emits; anything else fails
/// with `*error` naming the line and field (see json::parse_lines).
std::string to_jsonl(const LedgerSeries& series);
bool parse_ledger_jsonl(const std::string& text, LedgerSeries& out,
                        std::string* error = nullptr);

/// Human rendering: summary + lost-by-cause tables and (optionally) the
/// Figure 11-style goodput/MFU/ETTR chart.
std::string render(const LedgerSeries& series, bool chart = true);

/// Run-over-run comparison, biggest regression first.
std::string ledger_diff(const LedgerSeries& base, const LedgerSeries& cand);

/// The `msdiag ledger` subcommand:
///   ledger <run.jsonl> [--json] [--no-chart]
///   ledger --diff <base.jsonl> <cand.jsonl>
int ledger_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);
std::string ledger_usage();

}  // namespace ms::telemetry
