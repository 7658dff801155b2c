// Campaign driver: seed fan-out, oracle, shrinker, repro artifacts, and
// the chaos_campaign command line that runs them.
//
// A campaign runs one scenario across N derived seeds and judges every
// outcome with the resilience oracle. Each failing seed is shrunk by
// delta-debugging (ddmin) over the injected fault schedule to a minimal
// schedule that still fails, and packaged as a repro: the exact command
// line that replays it plus a JSON artifact with the outcome record and
// the minimized schedule. This is what turns MegaScale §4's ">90%
// effective time despite faults" from a narrative into a regression gate.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "chaos/config.h"
#include "chaos/outcome.h"
#include "chaos/runner.h"

namespace ms::chaos {

struct OracleVerdict {
  bool pass = true;
  std::string reason;  ///< first failed expectation, empty on pass
};

/// The resilience oracle: every judged fail-stop must have been detected
/// (no detection holes), recovery must have kept the effective-time ratio
/// above the configured floor, and flap aborts must map to restarts.
OracleVerdict evaluate_outcome(const ChaosConfig& cfg,
                               const OutcomeRecord& record);

struct CampaignFailure {
  std::uint64_t seed = 0;
  OutcomeRecord record;
  std::string reason;
  /// ddmin-minimal schedule that still fails the oracle.
  FaultSchedule minimized;
  OutcomeRecord minimized_record;
  /// Command line replaying the failing seed exactly.
  std::string repro;
};

struct CampaignResult {
  std::string scenario;
  std::uint64_t base_seed = 0;
  int seeds = 0;
  int passed = 0;
  std::vector<OutcomeRecord> records;
  std::vector<CampaignFailure> failures;
};

/// Runs `scenario` across seeds derive_seed(base_seed, "chaos.campaign", i)
/// for i in [0, n_seeds); shrinks every failure. Exports
/// chaos_runs_total{scenario,outcome} when cfg.metrics is set.
CampaignResult run_campaign(const ChaosConfig& cfg, const Scenario& scenario,
                            std::uint64_t base_seed, int n_seeds);

/// Delta-debugging (ddmin): returns a subset of `failing` that still fails
/// the oracle and cannot lose any single remaining fault without passing
/// (1-minimality). `failing` must itself fail.
FaultSchedule shrink_schedule(const ChaosConfig& cfg,
                              const std::string& scenario_name,
                              std::uint64_t seed,
                              const FaultSchedule& failing);

/// "chaos_campaign --scenario <name> --seed <seed>[ --canary]".
std::string repro_command(const std::string& scenario_name, std::uint64_t seed,
                          bool canary);

/// Writes <dir>/chaos-<scenario>-seed<seed>.json: the failing record, the
/// oracle reason, the minimized schedule and the repro command. Returns
/// the path written, or "" on I/O failure.
std::string write_failure_artifact(const std::string& dir,
                                   const CampaignFailure& failure);

/// The chaos_campaign command line (argv without the program name), e.g.
/// `--scenario mixed --seeds 32` or `--scenario mixed --seed 1234567` to
/// replay one seed. Returns 0 when every seed passes the oracle, 1 when
/// one fails and 2 on usage errors.
int chaos_campaign_main(const std::vector<std::string>& args,
                        std::ostream& out, std::ostream& err);

}  // namespace ms::chaos
