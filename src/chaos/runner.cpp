#include "chaos/runner.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include <map>

#include "core/stats.h"
#include "diag/flight_recorder.h"
#include "engine/job.h"
#include "ft/driver_sim.h"
#include "net/ccsim_multi.h"
#include "net/ecmp.h"
#include "net/fabric/detectors.h"
#include "net/fabric/observatory.h"
#include "net/fabric/rounds.h"
#include "net/flap.h"
#include "net/topology.h"
#include "telemetry/metrics.h"

namespace ms::chaos {

namespace {

/// Reference job: the 13B preset on 16 GPUs (TP 4 x PP 2 x DP 2) — small
/// enough to simulate in milliseconds, big enough that the step time is a
/// meaningful unit for "steps lost since last checkpoint".
engine::JobConfig reference_job() {
  engine::JobConfig job;
  job.model = model::config_13b();
  job.par = parallel::ParallelConfig{.tp = 4, .pp = 2, .dp = 2, .vpp = 1};
  job.ops = model::OperatorProfile::megascale();
  job.overlap = engine::OverlapOptions::megascale();
  job.global_batch = 32;
  return job;
}

/// Quantile summary; the caller fills `mean` from its running sum.
LatencyStats summarize(const Percentiles& samples) {
  LatencyStats stats;
  stats.count = static_cast<int>(samples.count());
  if (samples.empty()) return stats;
  stats.p50 = static_cast<TimeNs>(samples.quantile(0.5));
  stats.p95 = static_cast<TimeNs>(samples.quantile(0.95));
  stats.max = static_cast<TimeNs>(samples.quantile(1.0));
  return stats;
}

/// PFC storm: one-hop incast pressure scaled by intensity in (0, 1]. Runs
/// DCQCN — the controller the paper shows letting queues reach the PFC
/// threshold. Returns the fraction of time the senders were paused.
double run_storm(double intensity) {
  net::MultiCcParams params =
      net::incast_params(8 + static_cast<int>(24.0 * intensity));
  params.duration_s = 0.02;
  // Harder storms get shallower PFC headroom (the §3.6 observation: deep
  // queues under incast push right up against the pause threshold).
  params.pfc_pause *= (1.0 - 0.5 * intensity);
  params.pfc_resume = params.pfc_pause * 0.8;
  return net::run_multi_cc_sim(
             params, [] { return std::make_unique<net::Dcqcn>(); })
      .hop_pause_fraction[0];
}

struct DriverFaultPlan {
  std::vector<ft::FaultEvent> faults;
};

/// One graded localization run.
struct FabricVerdict {
  bool scored = false;       ///< there was a hot link to name
  bool top1_correct = false; ///< the detectors named it first
  int alarms = 0;
  TimeNs first_alarm = -1;
};

/// Replays a PFC storm through the multi-hop victim chain under a fabric
/// observatory and asks the detectors to name the bottleneck hop. Ground
/// truth is the chain's last hop — the only queue that congests from its
/// own service deficit; everything upstream is paused collateral.
FabricVerdict localize_storm(double intensity, diag::FlightRecorder* flight) {
  net::fabric::FabricObservatoryConfig obs_cfg;
  obs_cfg.flight = flight;
  net::fabric::FabricObservatory obs(obs_cfg);
  const auto round = net::fabric::run_storm_round(intensity, &obs);
  const auto report = net::fabric::detect_anomalies(obs, round.detector);

  FabricVerdict verdict;
  verdict.scored = true;
  verdict.alarms = static_cast<int>(report.alarms.size());
  verdict.first_alarm = report.first_alarm;
  const int truth = obs.find_link(round.bottleneck);
  verdict.top1_correct = truth >= 0 && report.hottest_link == truth;
  return verdict;
}

/// Grades an ECMP rehash round the observatory recorded: the detectors
/// must rank a maximally-loaded inter-switch uplink first. Rounds whose
/// worst uplink carries a single flow have nothing to localize and are not
/// scored.
FabricVerdict localize_rehash(const net::ClosTopology& topo,
                              const net::fabric::RehashRound& round,
                              const net::fabric::FabricObservatory& obs) {
  // Independent ground truth: per-link loads from the same deterministic
  // router, ordered so ties resolve to the lowest LinkId.
  net::EcmpRouter router(topo);
  std::map<net::LinkId, int> load;
  for (const auto& flow : round.flows) {
    for (net::LinkId l : router.route(flow)) ++load[l];
  }
  int max_inter_load = 0;
  for (const auto& [l, n_flows] : load) {
    const auto& link = topo.link(l);
    const bool inter_switch =
        topo.node(link.src).kind != net::NodeKind::kHost &&
        topo.node(link.dst).kind != net::NodeKind::kHost;
    if (inter_switch) max_inter_load = std::max(max_inter_load, n_flows);
  }

  FabricVerdict verdict;
  if (max_inter_load < 2) return verdict;  // no conflict: nothing to name
  verdict.scored = true;

  const auto report = net::fabric::detect_anomalies(obs, round.detector);
  verdict.alarms = static_cast<int>(report.alarms.size());
  verdict.first_alarm = report.first_alarm;
  // Every maximally-loaded uplink is an equally correct answer (ECMP ties
  // are physical: the same flow count hashes onto each).
  if (report.hottest_link >= 0) {
    const auto it = load.find(static_cast<net::LinkId>(report.hottest_link));
    verdict.top1_correct = it != load.end() && it->second == max_inter_load;
  }
  return verdict;
}

}  // namespace

TimeNs reference_step_time() {
  static const TimeNs kStep = [] {
    const auto job = reference_job();
    assert(engine::validate(job).empty());
    return engine::simulate_iteration(job).iteration_time;
  }();
  return kStep;
}

OutcomeRecord run_schedule(const ChaosConfig& cfg,
                           const std::string& scenario_name,
                           std::uint64_t seed, const FaultSchedule& schedule) {
  OutcomeRecord record;
  record.scenario = scenario_name;
  record.seed = seed;
  record.faults_injected = static_cast<int>(schedule.size());
  record.schedule_digest = schedule_digest(schedule);

  // ---- pass 1: non-fail-stop fault classes ----------------------------
  double straggler_factor = 1.0;
  double comm_factor = 1.0;
  DriverFaultPlan plan;
  // Storms and rehashes are graded on congestion localization: the
  // detectors must name the injected hot link top-1.
  const auto grade = [&record](const FabricVerdict& verdict) {
    if (!verdict.scored) return;
    ++record.fabric_localizations;
    record.fabric_alarms += verdict.alarms;
    if (verdict.top1_correct) ++record.fabric_top1_correct;
    if (verdict.first_alarm >= 0) {
      record.fabric_detect_latency =
          std::max(record.fabric_detect_latency, verdict.first_alarm);
    } else {
      // Congestion without one fabric alarm is a detection hole, same
      // class as a dead heartbeat path.
      ++record.undetected_faults;
    }
  };

  for (const auto& fault : schedule) {
    if (cfg.flight != nullptr) {
      cfg.flight->record(fault.node % cfg.nodes, fault.at, "inject",
                         describe(fault));
    }
    switch (fault.kind) {
      case FaultKind::kFailStop: {
        ft::FaultEvent event;
        event.at = fault.at;
        event.node = fault.node % cfg.nodes;
        event.type = fault.fail_type;
        plan.faults.push_back(event);
        break;
      }
      case FaultKind::kStraggler:
        straggler_factor =
            std::max(straggler_factor, 1.0 + std::max(0.0, fault.magnitude));
        break;
      case FaultKind::kLinkFlap: {
        // The flap interrupts an in-flight all-gather shard shortly after
        // the transfer begins.
        net::FlapEvent flap;
        flap.down_at = milliseconds(5.0);
        flap.down_duration = fault.duration;
        const auto outcome = net::simulate_transfer_with_flaps(
            cfg.flap_transfer_bytes, cfg.link_bw, {flap}, cfg.retrans);
        record.flap_stall_total += outcome.total_stall;
        if (outcome.nccl_error) {
          ++record.nccl_errors;
          // The abort surfaces as a NIC-flap fault: the process survives
          // but collective traffic collapses until recovery replaces it.
          ft::FaultEvent event;
          event.at = fault.at + outcome.finish_time;
          event.node = fault.node % cfg.nodes;
          event.type = ft::FaultType::kNicFlap;
          plan.faults.push_back(event);
        }
        break;
      }
      case FaultKind::kCkptStall:
        record.ckpt_stall_total += std::max<TimeNs>(0, fault.duration);
        break;
      case FaultKind::kPfcStorm: {
        const double intensity = std::clamp(fault.magnitude, 0.05, 1.0);
        const double storm_pause = run_storm(intensity);
        record.pfc_pause_fraction =
            std::max(record.pfc_pause_fraction, storm_pause);
        const double pause = std::min(storm_pause, 0.9);
        comm_factor = std::max(comm_factor, 1.0 / (1.0 - pause));
        grade(localize_storm(intensity, cfg.flight));
        break;
      }
      case FaultKind::kEcmpRehash: {
        // Re-roll every flow's path luck: ring traffic over the fabric
        // with labels derived from this rehash round. The observatory is
        // passive, so the observed report is the bare analysis.
        static const net::ClosTopology topo(net::fabric::small_clos());
        Rng rng(derive_seed(seed, "chaos.ecmp",
                            static_cast<std::uint64_t>(fault.node)));
        net::fabric::FabricObservatoryConfig obs_cfg;
        obs_cfg.flight = cfg.flight;
        net::fabric::FabricObservatory obs(obs_cfg);
        const auto round = net::fabric::run_rehash_round(topo, rng, obs);
        record.ecmp_conflict_fraction = std::max(
            record.ecmp_conflict_fraction, round.report.conflict_fraction);
        const double tput = std::max(round.report.mean_throughput_frac, 0.1);
        comm_factor = std::max(comm_factor, 1.0 / tput);
        grade(localize_rehash(topo, round, obs));
        break;
      }
    }
  }

  // ---- pass 2: the event-driven recovery protocol ---------------------
  std::sort(plan.faults.begin(), plan.faults.end(),
            [](const ft::FaultEvent& a, const ft::FaultEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.node != b.node) return a.node < b.node;
              return a.type < b.type;
            });
  ft::DriverSimConfig driver;
  driver.nodes = cfg.nodes;
  driver.spares = cfg.spares;
  driver.detector = cfg.detector;
  driver.suite = cfg.suite;
  driver.evict_replenish_time = cfg.evict_replenish_time;
  driver.restore_time = cfg.restore_time;
  driver.manual_analysis_time = cfg.manual_analysis_time;
  driver.node_repair_time = cfg.node_repair_time;
  driver.flight = cfg.flight;
  if (cfg.canary) {
    // The seeded regression: heartbeat-timeout detection is disabled, so
    // hung hosts (kGpuHang stops heartbeating) are never found. Campaigns
    // must catch this and shrink failing schedules down to the hang.
    driver.detector.heartbeat_timeout = cfg.duration * 2;
  }

  Rng driver_rng(derive_seed(seed, "chaos.driver"));
  const auto report =
      ft::run_driver_sim(driver, cfg.duration, plan.faults, driver_rng);
  record.restarts = static_cast<int>(report.incidents.size());
  record.spare_pool_exhausted = report.spare_pool_exhausted_events;
  record.engine_digest = report.engine_digest;

  // Detection coverage: a fault is covered when some incident (finished
  // or still in flight) accounts for it — exactly it, or an incident
  // window on the same node spanning the injection (the node was already
  // broken and got replaced anyway).
  auto covered = [&](const ft::FaultEvent& fault) {
    const auto matches = [&](const ft::DriverIncident& incident) {
      if (incident.node != fault.node) return false;
      if (incident.fault_at == fault.at) return true;
      return incident.fault_at <= fault.at &&
             (incident.resumed_at < 0 || incident.resumed_at >= fault.at);
    };
    for (const auto& incident : report.incidents) {
      if (matches(incident)) return true;
    }
    for (const auto& incident : report.in_flight) {
      if (matches(incident)) return true;
    }
    return false;
  };

  // The driver handles one incident at a time, so a fault that lands while
  // earlier recoveries monopolize the window is queued, not missed. Only
  // flag a fault as undetected when the fleet still spent at least
  // cfg.detection_grace back in training after the injection with nothing
  // ever raised for that node — a dead detection path, not backpressure.
  std::vector<std::pair<TimeNs, TimeNs>> busy;
  auto note_busy = [&](const ft::DriverIncident& incident) {
    if (incident.alarm_at < 0) return;
    busy.emplace_back(incident.alarm_at, incident.resumed_at < 0
                                             ? cfg.duration
                                             : incident.resumed_at);
  };
  for (const auto& incident : report.incidents) note_busy(incident);
  for (const auto& incident : report.in_flight) note_busy(incident);
  auto idle_after = [&](TimeNs t) {
    TimeNs idle = cfg.duration - t;
    for (const auto& [start, end] : busy) {
      idle -= std::max<TimeNs>(
          0, std::min(end, cfg.duration) - std::max(start, t));
    }
    return idle;
  };
  for (const auto& event : plan.faults) {
    if (!covered(event) && idle_after(event.at) >= cfg.detection_grace) {
      ++record.undetected_faults;
    }
  }

  // ---- pass 3: score ---------------------------------------------------
  Percentiles detect, recover;
  TimeNs detect_sum = 0, recover_sum = 0;
  TimeNs lost_time = 0;
  auto note_incident = [&](const ft::DriverIncident& incident) {
    if (incident.alarm_at >= 0) {
      const TimeNs latency = incident.alarm_at - incident.fault_at;
      detect.add(static_cast<double>(latency));
      detect_sum += latency;
    }
    if (incident.resumed_at >= 0) {
      const TimeNs latency = incident.resumed_at - incident.fault_at;
      recover.add(static_cast<double>(latency));
      recover_sum += latency;
      // Progress since the last on-schedule checkpoint is redone (§4.4).
      lost_time += incident.fault_at % cfg.checkpoint_interval;
    }
  };
  for (const auto& incident : report.incidents) note_incident(incident);
  for (const auto& incident : report.in_flight) note_incident(incident);

  record.detect_latency = summarize(detect);
  if (!detect.empty()) {
    record.detect_latency.mean = detect_sum / static_cast<TimeNs>(detect.count());
  }
  record.recovery_latency = summarize(recover);
  if (!recover.empty()) {
    record.recovery_latency.mean =
        recover_sum / static_cast<TimeNs>(recover.count());
  }

  record.slowdown_factor =
      straggler_factor * (1.0 + cfg.comm_fraction * (comm_factor - 1.0));

  const TimeNs step = reference_step_time();
  const double step_scaled =
      static_cast<double>(step) * record.slowdown_factor;
  record.steps_lost =
      static_cast<std::int64_t>(static_cast<double>(lost_time) / step_scaled);

  const double stall_fraction = std::min(
      1.0, static_cast<double>(record.ckpt_stall_total +
                               record.flap_stall_total + lost_time) /
               static_cast<double>(cfg.duration));
  record.effective_time_ratio = report.effective_fraction /
                                record.slowdown_factor *
                                (1.0 - stall_fraction);

  record.record_digest = compute_record_digest(record);

  // ---- telemetry -------------------------------------------------------
  if (cfg.metrics != nullptr) {
    auto* m = cfg.metrics;
    const telemetry::Labels by_scenario = {{"scenario", scenario_name}};
    m->counter("chaos_faults_injected_total", by_scenario)
        .add(static_cast<double>(record.faults_injected));
    m->gauge("chaos_effective_time_ratio", by_scenario)
        .set(record.effective_time_ratio);
    auto& recovery_hist =
        m->histogram("chaos_recovery_latency_seconds", by_scenario);
    for (const auto& incident : report.incidents) {
      if (incident.resumed_at >= 0) {
        recovery_hist.observe(
            to_seconds(incident.resumed_at - incident.fault_at));
      }
    }
    auto& detect_hist =
        m->histogram("chaos_detect_latency_seconds", by_scenario);
    for (const auto& incident : report.incidents) {
      if (incident.alarm_at >= 0) {
        detect_hist.observe(to_seconds(incident.alarm_at - incident.fault_at));
      }
    }
  }

  return record;
}

OutcomeRecord run_scenario(const ChaosConfig& cfg, const Scenario& scenario,
                           std::uint64_t seed) {
  return run_schedule(cfg, scenario.name, seed,
                      generate_schedule(cfg, scenario, seed));
}

}  // namespace ms::chaos
