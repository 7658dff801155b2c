// The chaos runner: one seeded schedule driven through the whole stack.
//
// A run composes every layer the paper's §4 story spans:
//   * fail-stops (and flap-induced NCCL aborts) become ft::FaultEvents and
//     execute as a real event program on the discrete-event Engine via
//     ft::run_driver_sim — heartbeats, AnomalyDetector, diagnostic suite,
//     evict/replenish/restore, finite spare pool;
//   * link flaps run through net::simulate_transfer_with_flaps against the
//     configured retransmission policy (stall, or NCCL abort -> restart);
//   * PFC storms run the fluid PFC chain; ECMP rehashes run the real
//     router over a Clos fabric; stragglers use the §5.1 population model;
//   * the healthy step time comes from engine::simulate_iteration on a
//     reference training job (parallel + collective + model cost stack).
//
// Everything stochastic derives from ONE seed via core derive_seed, and
// every run folds into deterministic digests: same (config, scenario,
// seed) => bit-identical OutcomeRecord. Degradation composes monotonically
// — each injected fault can only lower the effective-time ratio — which is
// the property the campaign's property tests pin down.
#pragma once

#include <cstdint>

#include "chaos/config.h"
#include "chaos/outcome.h"
#include "chaos/scenario.h"
#include "chaos/schedule.h"

namespace ms::chaos {

/// Runs an explicit schedule (the shrinker's entry point). `scenario_name`
/// only labels the record; the schedule is executed as given.
OutcomeRecord run_schedule(const ChaosConfig& cfg,
                           const std::string& scenario_name,
                           std::uint64_t seed, const FaultSchedule& schedule);

/// Generates the scenario's schedule from `seed` and runs it.
OutcomeRecord run_scenario(const ChaosConfig& cfg, const Scenario& scenario,
                           std::uint64_t seed);

/// Healthy per-step time of the reference training job (computed once per
/// process via engine::simulate_iteration; deterministic).
TimeNs reference_step_time();

}  // namespace ms::chaos
