#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "net/ccsim_multi.h"
#include "net/ecmp.h"
#include "net/flap.h"
#include "net/flowsim.h"
#include "net/topology.h"
#include "support/builders.h"

namespace ms::net {
namespace {

using testsupport::small_clos_params;

// ------------------------------------------------------------- topology

TEST(Topology, NodeCounts) {
  ClosTopology topo(small_clos_params());
  const auto& p = topo.params();
  EXPECT_EQ(p.tors_per_rail(), 4);
  EXPECT_EQ(p.tor_count(), 8);
  EXPECT_EQ(p.spine_count(), 4);
  int hosts = 0, tors = 0, aggs = 0, spines = 0;
  for (const auto& n : topo.nodes()) {
    switch (n.kind) {
      case NodeKind::kHost: ++hosts; break;
      case NodeKind::kTor: ++tors; break;
      case NodeKind::kAgg: ++aggs; break;
      case NodeKind::kSpine: ++spines; break;
    }
  }
  EXPECT_EQ(hosts, 32);
  EXPECT_EQ(tors, 8);
  EXPECT_EQ(aggs, 4);
  EXPECT_EQ(spines, 4);
}

TEST(Topology, SameTorPathIsTwoHops) {
  ClosTopology topo(small_clos_params());
  auto paths = topo.ecmp_paths(0, 1, 0);  // hosts 0,1 share ToR (8 per ToR)
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].size(), 2u);
}

TEST(Topology, SamePodPathCountEqualsAggs) {
  ClosTopology topo(small_clos_params());
  // ToR index = host/8. Host 0 -> ToR 0 (pod 0); host 16 -> ToR 2 (pod 0).
  auto paths = topo.ecmp_paths(0, 16, 0);
  EXPECT_EQ(paths.size(), 2u);  // aggs_per_pod
  for (const auto& p : paths) EXPECT_EQ(p.size(), 4u);
}

TEST(Topology, CrossPodPathCountEqualsSpines) {
  ClosTopology topo(small_clos_params());
  // Host 0 -> ToR 0 (pod 0); host 8 -> ToR 1 (pod 1).
  auto paths = topo.ecmp_paths(0, 8, 0);
  EXPECT_EQ(paths.size(), 4u);  // spine_count
  for (const auto& p : paths) EXPECT_EQ(p.size(), 6u);
}

TEST(Topology, PathLinksAreConnected) {
  ClosTopology topo(small_clos_params());
  for (const auto& path : topo.ecmp_paths(0, 8, 1)) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_EQ(topo.link(path[i]).dst, topo.link(path[i + 1]).src);
    }
    EXPECT_EQ(topo.link(path.front()).src, topo.host(0));
    EXPECT_EQ(topo.link(path.back()).dst, topo.host(8));
  }
}

TEST(Topology, PathsStayOnRail) {
  ClosTopology topo(small_clos_params());
  for (int rail = 0; rail < 2; ++rail) {
    for (const auto& path : topo.ecmp_paths(0, 20, rail)) {
      // First hop must land on a ToR of this rail.
      const auto& first = topo.link(path.front());
      EXPECT_EQ(topo.node(first.dst).rail, rail);
    }
  }
}

TEST(Topology, SelfPathsEmpty) {
  ClosTopology topo(small_clos_params());
  EXPECT_TRUE(topo.ecmp_paths(3, 3, 0).empty());
}

TEST(Topology, SplitDownlinkDoublesUplinkCapacity) {
  auto p = small_clos_params();
  p.split_downlink_ports = true;
  ClosTopology tuned(p);
  p.split_downlink_ports = false;
  ClosTopology untuned(p);
  // Find a ToR->Agg link in each and compare capacities.
  auto uplink_cap = [](const ClosTopology& t) -> Bandwidth {
    for (const auto& l : t.links()) {
      if (t.node(l.src).kind == NodeKind::kTor &&
          t.node(l.dst).kind == NodeKind::kAgg) {
        return l.capacity;
      }
    }
    return 0;
  };
  EXPECT_DOUBLE_EQ(uplink_cap(tuned), gbps(400.0));
  EXPECT_DOUBLE_EQ(uplink_cap(untuned), gbps(200.0));
}

TEST(Topology, BisectionBandwidthPositive) {
  ClosTopology topo(small_clos_params());
  // Sum of agg->spine capacities, one direction: aggs(4) x
  // spines_per_plane(2) links at 400G.
  Bandwidth bisection = 0;
  for (const auto& l : topo.links()) {
    if (topo.node(l.src).kind == NodeKind::kAgg &&
        topo.node(l.dst).kind == NodeKind::kSpine) {
      bisection += l.capacity;
    }
  }
  EXPECT_DOUBLE_EQ(bisection, 8 * gbps(400.0));
}

// ----------------------------------------------------------------- ecmp

TEST(Ecmp, RouteDeterministic) {
  ClosTopology topo(small_clos_params());
  EcmpRouter router(topo);
  FlowSpec f{.src_host = 0, .dst_host = 8, .rail = 0, .flow_label = 42};
  EXPECT_EQ(router.route(f), router.route(f));
}

TEST(Ecmp, DifferentLabelsSpreadOverPaths) {
  ClosTopology topo(small_clos_params());
  EcmpRouter router(topo);
  std::set<Path> distinct;
  for (std::uint64_t label = 0; label < 64; ++label) {
    distinct.insert(
        router.route({.src_host = 0, .dst_host = 8, .rail = 0, .flow_label = label}));
  }
  EXPECT_GT(distinct.size(), 1u);
  EXPECT_LE(distinct.size(), 4u);  // at most spine_count paths exist
}

TEST(Ecmp, SingleFlowGetsLineRate) {
  ClosTopology topo(small_clos_params());
  std::vector<FlowSpec> flows{{.src_host = 0, .dst_host = 8, .rail = 0}};
  auto r = analyze_ecmp(topo, flows);
  EXPECT_DOUBLE_EQ(r.mean_throughput_frac, 1.0);
  EXPECT_DOUBLE_EQ(r.conflict_fraction, 0.0);
}

TEST(Ecmp, PortSplitReducesConflicts) {
  auto p = small_clos_params();
  p.hosts = 64;
  p.hosts_per_tor = 8;
  Rng rng(1);

  p.split_downlink_ports = false;
  ClosTopology untuned(p);
  p.split_downlink_ports = true;
  ClosTopology tuned(p);

  double untuned_conflicts = 0, tuned_conflicts = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Rng trial_rng(static_cast<std::uint64_t>(trial) + 100);
    auto flows = permutation_traffic(untuned, trial_rng);
    untuned_conflicts += analyze_ecmp(untuned, flows).conflict_fraction;
    tuned_conflicts += analyze_ecmp(tuned, flows).conflict_fraction;
  }
  EXPECT_LT(tuned_conflicts, untuned_conflicts);
}

TEST(Ecmp, PackedRingStaysUnderTor) {
  auto p = small_clos_params();
  Rng rng(3);
  ClosTopology topo(p);
  auto flows = ring_traffic(topo, 8, /*pack_under_tor=*/true, rng);
  auto r = analyze_ecmp(topo, flows);
  // All hops are host->tor->host: 2 hops, no uplink traffic, no conflicts.
  EXPECT_DOUBLE_EQ(r.mean_hops, 2.0);
  EXPECT_DOUBLE_EQ(r.conflict_fraction, 0.0);
}

TEST(Ecmp, SpreadRingUsesMoreHops) {
  auto p = small_clos_params();
  Rng rng(4);
  ClosTopology topo(p);
  auto spread = ring_traffic(topo, 8, /*pack_under_tor=*/false, rng);
  auto r = analyze_ecmp(topo, spread);
  EXPECT_GT(r.mean_hops, 2.0);
}

// -------------------------------------------------------------- flowsim

TEST(FlowSim, SingleFlowAtLineRate) {
  ClosTopology topo(small_clos_params());
  FlowSim sim(topo);
  // 25 GB over a 25 GB/s NIC (200 Gb/s) => 1 s.
  auto paths = topo.ecmp_paths(0, 8, 0);
  const int f = sim.add_flow(paths[0], static_cast<Bytes>(25e9));
  sim.run();
  EXPECT_NEAR(to_seconds(sim.result(f).finish), 1.0, 1e-6);
}

TEST(FlowSim, TwoFlowsShareLink) {
  ClosTopology topo(small_clos_params());
  FlowSim sim(topo);
  auto paths = topo.ecmp_paths(0, 8, 0);
  // Same path: both flows share the 25 GB/s NIC link => each gets half.
  sim.add_flow(paths[0], static_cast<Bytes>(12.5e9));
  sim.add_flow(paths[0], static_cast<Bytes>(12.5e9));
  sim.run();
  EXPECT_NEAR(to_seconds(sim.result(0).finish), 1.0, 1e-6);
  EXPECT_NEAR(to_seconds(sim.result(1).finish), 1.0, 1e-6);
}

TEST(FlowSim, ShortFlowFinishesThenLongSpeedsUp) {
  ClosTopology topo(small_clos_params());
  FlowSim sim(topo);
  auto paths = topo.ecmp_paths(0, 8, 0);
  // Long flow: 25 GB; short flow: 6.25 GB. Shared until short finishes at
  // t=0.5s (rate 12.5GB/s each); then long runs at 25 GB/s:
  // remaining 18.75GB -> 0.75s more. Total 1.25s.
  const int lng = sim.add_flow(paths[0], static_cast<Bytes>(25e9));
  const int sht = sim.add_flow(paths[0], static_cast<Bytes>(6.25e9));
  sim.run();
  EXPECT_NEAR(to_seconds(sim.result(sht).finish), 0.5, 1e-6);
  EXPECT_NEAR(to_seconds(sim.result(lng).finish), 1.25, 1e-6);
}

TEST(FlowSim, LateArrivalHonored) {
  ClosTopology topo(small_clos_params());
  FlowSim sim(topo);
  auto paths = topo.ecmp_paths(0, 8, 0);
  const int f = sim.add_flow(paths[0], static_cast<Bytes>(25e9), seconds(2.0));
  sim.run();
  EXPECT_NEAR(to_seconds(sim.result(f).finish), 3.0, 1e-6);
  EXPECT_NEAR(to_seconds(sim.result(f).duration()), 1.0, 1e-6);
}

TEST(FlowSim, DisjointFlowsDoNotInterfere) {
  auto p = small_clos_params();
  ClosTopology topo(p);
  FlowSim sim(topo);
  // Rails are disjoint: same host pair on different rails shares nothing.
  auto path0 = topo.ecmp_paths(0, 1, 0)[0];
  auto path1 = topo.ecmp_paths(0, 1, 1)[0];
  sim.add_flow(path0, static_cast<Bytes>(25e9));
  sim.add_flow(path1, static_cast<Bytes>(25e9));
  sim.run();
  EXPECT_NEAR(to_seconds(sim.result(0).finish), 1.0, 1e-6);
  EXPECT_NEAR(to_seconds(sim.result(1).finish), 1.0, 1e-6);
}

TEST(FlowSim, MatchesEqualShareOnSymmetricLoad) {
  // For symmetric single-bottleneck loads, max-min equals equal-share, so
  // the ECMP analyzer's approximation should agree with the simulator.
  ClosTopology topo(small_clos_params());
  FlowSim sim(topo);
  auto paths = topo.ecmp_paths(0, 8, 0);
  for (int i = 0; i < 4; ++i) {
    sim.add_flow(paths[0], static_cast<Bytes>(25e9));
  }
  sim.run();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(to_seconds(sim.result(i).finish), 4.0, 1e-6);
  }
}

TEST(FlowSim, EmptyPathRejected) {
  ClosTopology topo(small_clos_params());
  FlowSim sim(topo);
  EXPECT_THROW(sim.add_flow({}, 100), std::invalid_argument);
}

// ----------------------------------------------------------------- ccsim

MultiCcParams cc_params(int senders = 8) {
  MultiCcParams p = incast_params(senders);
  p.duration_s = 0.03;
  return p;
}

TEST(CcSim, AllAlgorithmsAchieveReasonableUtilization) {
  const auto p = cc_params();
  for (auto make : {std::function<std::unique_ptr<CcAlgorithm>()>(
                        [] { return std::make_unique<Dcqcn>(); }),
                    std::function<std::unique_ptr<CcAlgorithm>()>(
                        [] { return std::make_unique<Swift>(); }),
                    std::function<std::unique_ptr<CcAlgorithm>()>(
                        [] { return std::make_unique<MegaScaleCc>(); })}) {
    auto r = run_multi_cc_sim(p, make);
    EXPECT_GT(r.hop_utilization[0], 0.5) << make()->name();
    EXPECT_LE(r.hop_utilization[0], 1.0 + 1e-9) << make()->name();
  }
}

TEST(CcSim, DcqcnTriggersPfcUnderIncast) {
  auto p = cc_params(32);  // heavy incast
  auto r = run_multi_cc_sim(p, [] { return std::make_unique<Dcqcn>(); });
  EXPECT_GT(r.hop_pause_events[0], 0);
}

TEST(CcSim, HybridAvoidsPfcAndKeepsThroughput) {
  auto p = cc_params(32);
  auto dcqcn = run_multi_cc_sim(p, [] { return std::make_unique<Dcqcn>(); });
  auto hybrid =
      run_multi_cc_sim(p, [] { return std::make_unique<MegaScaleCc>(); });
  EXPECT_LT(hybrid.hop_pause_fraction[0], dcqcn.hop_pause_fraction[0]);
  EXPECT_LT(hybrid.hop_mean_queue[0], dcqcn.hop_mean_queue[0]);
  EXPECT_GT(hybrid.hop_utilization[0], 0.85);
}

TEST(CcSim, HybridQueueLowerThanDcqcn) {
  auto p = cc_params(16);
  auto dcqcn = run_multi_cc_sim(p, [] { return std::make_unique<Dcqcn>(); });
  auto hybrid =
      run_multi_cc_sim(p, [] { return std::make_unique<MegaScaleCc>(); });
  EXPECT_LT(hybrid.hop_p99_queue[0], dcqcn.hop_p99_queue[0]);
}

TEST(CcSim, FairnessNearOne) {
  auto p = cc_params();
  for (auto make : {std::function<std::unique_ptr<CcAlgorithm>()>(
                        [] { return std::make_unique<Swift>(); }),
                    std::function<std::unique_ptr<CcAlgorithm>()>(
                        [] { return std::make_unique<MegaScaleCc>(); })}) {
    auto r = run_multi_cc_sim(p, make);
    EXPECT_GT(r.fairness, 0.95) << make()->name();
  }
}

// ------------------------------------------------- ccsim threshold edges

/// Constant-rate controller: removes the control loop so the fluid
/// integration is exactly predictable step by step.
class FixedRate : public CcAlgorithm {
 public:
  std::string name() const override { return "FixedRate"; }
  double on_feedback(double current_rate, const CcFeedback&) override {
    return current_rate;
  }
};

/// One sender at 2 B per step into a 1 B per step egress: the queue grows
/// by exactly 1 byte per step (dt = 0.25 s and byte-scale rates keep every
/// intermediate value exactly representable, so the PFC thresholds are hit
/// *exactly*, not approximately).
MultiCcParams staircase_params(int steps) {
  MultiCcParams p = incast_params(1);
  p.flows[0].line_rate = 8.0;
  p.hop_capacity = 4.0;
  p.step_s = 0.25;
  p.duration_s = 0.25 * static_cast<double>(steps);
  p.base_rtt_s = 0.25;
  p.ecn_kmin = 1000.0;  // ECN never fires at byte-scale queues
  p.ecn_kmax = 2000.0;
  p.pfc_pause = 3.0;
  p.pfc_resume = 2.0;
  return p;
}

TEST(CcSim, QueueExactlyAtPauseThresholdDoesNotPause) {
  // Queue after steps 0,1,2 is 1,2,3 bytes: it ends exactly ON the pause
  // threshold, and the latch requires strictly above.
  auto r = run_multi_cc_sim(staircase_params(3),
                            [] { return std::make_unique<FixedRate>(); });
  EXPECT_EQ(r.hop_pause_events[0], 0);
  EXPECT_DOUBLE_EQ(r.hop_pause_fraction[0], 0.0);
}

TEST(CcSim, QueueExactlyAtResumeThresholdStaysPaused) {
  // Queue walks 1,2,3,4 (pause latches strictly above 3), then drains
  // 3,2,1 while paused. At exactly 2 bytes the latch must HOLD (resume is
  // strictly below), so the pause spans three steps of the eight:
  // fraction 3/8 exactly. A <=-resume bug would yield 2/8, a >=-pause bug
  // would latch one step early — either breaks the equality.
  auto r = run_multi_cc_sim(staircase_params(8),
                            [] { return std::make_unique<FixedRate>(); });
  EXPECT_EQ(r.hop_pause_events[0], 1);
  EXPECT_DOUBLE_EQ(r.hop_pause_fraction[0], 0.375);
  EXPECT_DOUBLE_EQ(r.hop_utilization[0], 1.0);  // egress never idles
}

TEST(CcSim, DegenerateEcnBandIsFinite) {
  // kmin == kmax collapses the RED ramp to a step function; the marking
  // math must not divide by the zero-width band.
  auto p = cc_params(24);
  p.ecn_kmin = 800e3;
  p.ecn_kmax = 800e3;
  auto r = run_multi_cc_sim(p, [] { return std::make_unique<Dcqcn>(); });
  EXPECT_TRUE(std::isfinite(r.hop_utilization[0]));
  EXPECT_TRUE(std::isfinite(r.hop_mean_queue[0]));
  EXPECT_GT(r.hop_utilization[0], 0.0);
  EXPECT_LE(r.hop_utilization[0], 1.0 + 1e-9);
}

TEST(CcSim, ZeroRttIsFinite) {
  // base_rtt_s == 0 degenerates the feedback delay to one step and the
  // packet count to its floor of one; nothing may divide by the RTT.
  auto p = cc_params();
  p.base_rtt_s = 0.0;
  for (auto make : {std::function<std::unique_ptr<CcAlgorithm>()>(
                        [] { return std::make_unique<Dcqcn>(); }),
                    std::function<std::unique_ptr<CcAlgorithm>()>(
                        [] { return std::make_unique<MegaScaleCc>(); })}) {
    auto r = run_multi_cc_sim(p, make);
    EXPECT_TRUE(std::isfinite(r.hop_utilization[0])) << make()->name();
    EXPECT_GT(r.hop_utilization[0], 0.0) << make()->name();
    EXPECT_LE(r.hop_utilization[0], 1.0 + 1e-9) << make()->name();
  }
}

// ------------------------------------------------------------------ flap

TEST(Flap, NoFlapCompletesAtLineRate) {
  RetransConfig cfg;
  auto out = simulate_transfer_with_flaps(static_cast<Bytes>(25e9), 25e9, {}, cfg);
  EXPECT_TRUE(out.completed);
  EXPECT_FALSE(out.nccl_error);
  EXPECT_NEAR(to_seconds(out.finish_time), 1.0, 1e-6);
  EXPECT_EQ(out.total_stall, 0);
}

TEST(Flap, ShortFlapRecoversWithAdaptiveRetrans) {
  RetransConfig cfg;
  cfg.adaptive = true;
  cfg.nccl_timeout = seconds(30.0);
  std::vector<FlapEvent> flaps{{.down_at = seconds(0.5), .down_duration = seconds(2.0)}};
  auto out = simulate_transfer_with_flaps(static_cast<Bytes>(25e9), 25e9, flaps, cfg);
  EXPECT_TRUE(out.completed);
  EXPECT_FALSE(out.nccl_error);
  // Stall is roughly the flap duration plus one probe interval.
  EXPECT_GE(out.total_stall, seconds(2.0));
  EXPECT_LE(out.total_stall, seconds(2.5));
}

TEST(Flap, AdaptiveRecoversFasterThanExponentialBackoff) {
  std::vector<FlapEvent> flaps{{.down_at = seconds(0.1), .down_duration = seconds(2.93)}};
  RetransConfig adaptive;
  adaptive.adaptive = true;
  RetransConfig backoff;
  backoff.adaptive = false;
  backoff.max_retries = 20;
  auto a = simulate_transfer_with_flaps(static_cast<Bytes>(25e9), 25e9, flaps, adaptive);
  auto b = simulate_transfer_with_flaps(static_cast<Bytes>(25e9), 25e9, flaps, backoff);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_LT(a.total_stall, b.total_stall);
}

TEST(Flap, DefaultTimeoutTooShortCausesNcclError) {
  // The paper's first lesson: with a small NCCL timeout, a multi-second
  // flap kills the job even though the link comes back.
  RetransConfig cfg;
  cfg.nccl_timeout = seconds(1.0);
  cfg.adaptive = true;
  std::vector<FlapEvent> flaps{{.down_at = seconds(0.5), .down_duration = seconds(5.0)}};
  auto out = simulate_transfer_with_flaps(static_cast<Bytes>(25e9), 25e9, flaps, cfg);
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.nccl_error);
  EXPECT_STREQ(out.error_kind, "nccl-timeout");
}

TEST(Flap, RetriesExhaustedReportsError) {
  RetransConfig cfg;
  cfg.adaptive = true;
  cfg.adaptive_interval = milliseconds(10.0);
  cfg.max_retries = 3;
  cfg.nccl_timeout = seconds(600.0);
  std::vector<FlapEvent> flaps{{.down_at = seconds(0.5), .down_duration = seconds(10.0)}};
  auto out = simulate_transfer_with_flaps(static_cast<Bytes>(25e9), 25e9, flaps, cfg);
  EXPECT_FALSE(out.completed);
  EXPECT_STREQ(out.error_kind, "retries-exhausted");
}

TEST(Flap, MultipleFlapsAccumulateStall) {
  RetransConfig cfg;
  cfg.adaptive = true;
  std::vector<FlapEvent> flaps{
      {.down_at = seconds(0.2), .down_duration = seconds(1.0)},
      {.down_at = seconds(1.5), .down_duration = seconds(1.0)}};
  auto out = simulate_transfer_with_flaps(static_cast<Bytes>(25e9), 25e9, flaps, cfg);
  ASSERT_TRUE(out.completed);
  EXPECT_GE(out.total_stall, seconds(2.0));
}

}  // namespace
}  // namespace ms::net
