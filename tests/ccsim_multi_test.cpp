// Tests for the multi-hop congestion-control model: PFC cascades and
// head-of-line victim flows (§3.6).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "net/ccsim_multi.h"

namespace ms::net {
namespace {

MultiCcParams uncongested() {
  MultiCcParams p;
  p.hops = 3;
  p.flows = {{0, 2, 25e9}};  // one flow, plenty of capacity
  p.duration_s = 0.02;
  return p;
}

TEST(MultiCc, SingleFlowRunsAtLineRate) {
  auto r = run_multi_cc_sim(uncongested(),
                            [] { return std::make_unique<MegaScaleCc>(); });
  ASSERT_EQ(r.flow_goodput_frac.size(), 1u);
  EXPECT_GT(r.flow_goodput_frac[0], 0.9);
  for (double pause : r.hop_pause_fraction) EXPECT_DOUBLE_EQ(pause, 0.0);
}

TEST(MultiCc, GoodputNeverExceedsLineRate) {
  MultiCcParams p;
  p.hops = 2;
  for (int i = 0; i < 8; ++i) p.flows.push_back({0, 1, 25e9});
  p.duration_s = 0.02;
  auto r = run_multi_cc_sim(p, [] { return std::make_unique<Swift>(); });
  for (double g : r.flow_goodput_frac) {
    EXPECT_LE(g, 1.0 + 1e-9);
    EXPECT_GE(g, 0.0);
  }
}

TEST(MultiCc, BottleneckHopHasDeepestQueue) {
  MultiCcParams p;
  p.hops = 3;
  // Early hops can absorb even the initial full-line-rate burst, so with
  // PFC disabled the only queue that ever builds is the bottleneck's.
  // (With PFC on, upstream queues legitimately grow PAST the bottleneck's
  // while their egress is paused — that is what headroom buffers absorb.)
  p.hop_capacities = {500e9, 500e9, 25e9};
  p.pfc_pause = 1e18;  // disable PFC for this invariant
  p.pfc_resume = 1e18;
  for (int i = 0; i < 16; ++i) p.flows.push_back({0, 2, 25e9});
  p.duration_s = 0.02;
  auto r = run_multi_cc_sim(p, [] { return std::make_unique<Dcqcn>(); });
  EXPECT_GT(r.hop_max_queue[2], r.hop_max_queue[0]);
  EXPECT_GT(r.hop_max_queue[2], r.hop_max_queue[1]);
}

TEST(MultiCc, AggregateBoundedByBottleneck) {
  MultiCcParams p;
  p.hops = 2;
  p.hop_capacities = {100e9, 25e9};
  for (int i = 0; i < 8; ++i) p.flows.push_back({0, 1, 25e9});
  p.duration_s = 0.03;
  auto r = run_multi_cc_sim(p, [] { return std::make_unique<MegaScaleCc>(); });
  double delivered = 0;
  for (double g : r.flow_goodput_frac) delivered += g * 25e9;
  EXPECT_LE(delivered, 25e9 * 1.05);  // small slack for the drain tail
}

/// Heavy incast into a slow last hop with shallow buffers.
MultiCcParams cascade() {
  MultiCcParams p;
  p.hops = 3;
  p.hop_capacities = {200e9, 200e9, 25e9};
  p.pfc_pause = 600e3;
  p.pfc_resume = 500e3;
  for (int i = 0; i < 32; ++i) p.flows.push_back({0, 2, 25e9});
  p.duration_s = 0.02;
  return p;
}

TEST(MultiCc, PfcCascadePropagatesUpstream) {
  // The pause must reach hop 0's egress at least briefly (the cascade).
  auto r =
      run_multi_cc_sim(cascade(), [] { return std::make_unique<Dcqcn>(); });
  EXPECT_GT(r.hop_pause_events[2], 0);  // queue2 XOFF pauses hop1
}

TEST(MultiCc, HopZeroQueueBoundedByPfcHeadroom) {
  // XOFF at hop 0 stops the senders injecting there, so hop 0's queue
  // overshoots the pause threshold by at most one step of their line rate.
  for (const auto& p : {cascade(), incast_params(64)}) {
    double line_rate = 0;
    for (const auto& flow : p.flows) {
      if (flow.first_hop == 0) line_rate += flow.line_rate;
    }
    auto r = run_multi_cc_sim(p, [] { return std::make_unique<Dcqcn>(); });
    EXPECT_LE(r.hop_max_queue[0], p.pfc_pause + p.step_s * line_rate)
        << p.hops << " hops";
  }
}

TEST(MultiCc, MalformedParamsThrow) {
  using Mutation = std::function<void(MultiCcParams&)>;
  const std::pair<const char*, Mutation> shapes[] = {
      {"no hops", [](MultiCcParams& p) { p.hops = 0; }},
      {"no flows", [](MultiCcParams& p) { p.flows.clear(); }},
      {"first_hop < 0", [](MultiCcParams& p) { p.flows[0].first_hop = -1; }},
      {"first_hop > last_hop",
       [](MultiCcParams& p) { p.flows[0] = {2, 1, 25e9}; }},
      {"last_hop >= hops", [](MultiCcParams& p) { p.flows[0].last_hop = 3; }},
      {"short hop_capacities",
       [](MultiCcParams& p) { p.hop_capacities = {50e9, 50e9}; }},
      {"zero capacity",
       [](MultiCcParams& p) { p.hop_capacities = {50e9, 0.0, 50e9}; }},
      {"infinite capacity",
       [](MultiCcParams& p) { p.hop_capacities = {50e9, 50e9, HUGE_VAL}; }},
      {"zero line rate", [](MultiCcParams& p) { p.flows[0].line_rate = 0; }},
      {"zero step", [](MultiCcParams& p) { p.step_s = 0.0; }},
      {"negative step", [](MultiCcParams& p) { p.step_s = -2e-6; }},
      {"NaN step", [](MultiCcParams& p) { p.step_s = std::nan(""); }},
      {"duration under one step",
       [](MultiCcParams& p) { p.duration_s = p.step_s / 2; }},
      {"steps past INT_MAX", [](MultiCcParams& p) { p.duration_s = 1e9; }},
      {"negative RTT", [](MultiCcParams& p) { p.base_rtt_s = -8e-6; }},
  };
  for (const auto& [what, mutate] : shapes) {
    auto p = uncongested();
    mutate(p);
    EXPECT_THROW(
        run_multi_cc_sim(p, [] { return std::make_unique<Dcqcn>(); }),
        std::invalid_argument)
        << what;
  }
}

// ---------------------------------------------------------------- victim

TEST(Victim, InnocentFlowHurtByPfcCollateral) {
  // The victim shares NO queue with the incast; any slowdown is pure PFC.
  auto r = run_victim_scenario(32, [] { return std::make_unique<Dcqcn>(); });
  EXPECT_LT(r.victim_goodput, 0.99);
  EXPECT_GT(r.victim_goodput, 0.5);
}

TEST(Victim, HybridProtectsVictimBetterThanDcqcn) {
  for (int senders : {16, 32, 64}) {
    auto dcqcn =
        run_victim_scenario(senders, [] { return std::make_unique<Dcqcn>(); });
    auto hybrid = run_victim_scenario(
        senders, [] { return std::make_unique<MegaScaleCc>(); });
    EXPECT_GT(hybrid.victim_goodput, dcqcn.victim_goodput)
        << senders << " senders";
  }
}

TEST(Victim, NoIncastMeansNoCollateral) {
  auto r = run_victim_scenario(1, [] { return std::make_unique<MegaScaleCc>(); });
  EXPECT_GT(r.victim_goodput, 0.95);
}

}  // namespace
}  // namespace ms::net
