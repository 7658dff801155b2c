// Parameterized property sweeps (TEST_P): invariants that must hold across
// whole configuration grids, not just hand-picked examples.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "collective/plan.h"
#include "engine/job.h"
#include "net/ecmp.h"
#include "net/flowsim.h"
#include "net/topology.h"
#include "parallel/mapping.h"
#include "parallel/pipeline.h"
#include "sim/engine.h"
#include "sim/graph.h"

namespace ms {
namespace {

// =============================================== pipeline schedule sweep

struct ScheduleCase {
  int pp, vpp, m;
};

class ScheduleProperty : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(ScheduleProperty, EveryPassExactlyOnceAndOrdered) {
  const auto [pp, vpp, m] = GetParam();
  for (int stage = 0; stage < pp; ++stage) {
    auto sched = parallel::schedule_for_stage(pp, stage, vpp, m);
    ASSERT_EQ(sched.size(), static_cast<std::size_t>(2 * m * vpp));
    std::set<std::pair<int, int>> fwd, bwd;
    for (const auto& e : sched) {
      const auto key = std::make_pair(e.chunk, e.microbatch);
      if (e.pass == parallel::PassType::kForward) {
        EXPECT_TRUE(fwd.insert(key).second);
      } else {
        EXPECT_TRUE(fwd.count(key)) << "B before F";
        EXPECT_TRUE(bwd.insert(key).second);
      }
    }
    EXPECT_EQ(fwd.size(), static_cast<std::size_t>(m * vpp));
    EXPECT_EQ(bwd.size(), static_cast<std::size_t>(m * vpp));
  }
}

TEST_P(ScheduleProperty, InflightNeverExceedsWarmupPlusOne) {
  const auto [pp, vpp, m] = GetParam();
  for (int stage = 0; stage < pp; ++stage) {
    auto sched = parallel::schedule_for_stage(pp, stage, vpp, m);
    const int peak = parallel::peak_inflight_microbatches(sched);
    const int warmup = parallel::warmup_slots(pp, stage, vpp, m);
    EXPECT_LE(peak, warmup + 1);
  }
}

// The full cross-stage dependency graph must execute without deadlock and
// with a makespan bounded by the bubble model.
TEST_P(ScheduleProperty, CrossStageGraphExecutes) {
  const auto [pp, vpp, m] = GetParam();
  sim::Engine engine;
  sim::GraphExecutor graph(static_cast<std::size_t>(pp));
  const TimeNs f = milliseconds(1.0), b = milliseconds(2.0);

  std::map<std::tuple<int, int, int, int>, sim::OpId> ops;
  for (int s = 0; s < pp; ++s) {
    sim::OpId prev = sim::kInvalidOp;
    for (const auto& e : parallel::schedule_for_stage(pp, s, vpp, m)) {
      const bool is_bwd = e.pass == parallel::PassType::kBackward;
      sim::OpId op = graph.add_op({.name = "op",
                                   .stream = static_cast<sim::StreamId>(s),
                                   .duration = is_bwd ? b : f});
      ops[{s, e.chunk, e.microbatch, is_bwd}] = op;
      if (prev != sim::kInvalidOp) graph.add_dep(prev, op);
      prev = op;
    }
  }
  for (int s = 0; s < pp; ++s) {
    for (int c = 0; c < vpp; ++c) {
      for (int mb = 0; mb < m; ++mb) {
        // Forward deps.
        if (s > 0) {
          graph.add_dep(ops[{s - 1, c, mb, false}], ops[{s, c, mb, false}]);
        } else if (c > 0) {
          graph.add_dep(ops[{pp - 1, c - 1, mb, false}], ops[{0, c, mb, false}]);
        }
        // Backward deps.
        if (s < pp - 1) {
          graph.add_dep(ops[{s + 1, c, mb, true}], ops[{s, c, mb, true}]);
        } else if (c < vpp - 1) {
          graph.add_dep(ops[{0, c + 1, mb, true}], ops[{pp - 1, c, mb, true}]);
        } else {
          graph.add_dep(ops[{s, c, mb, false}], ops[{s, c, mb, true}]);
        }
      }
    }
  }
  const TimeNs makespan = graph.run(engine);  // throws on deadlock
  // Lower bound: every stage must run its own work.
  EXPECT_GE(makespan, m * vpp * (f + b));
  // Upper bound: ideal work plus the analytic bubble plus slack.
  const double bubble = parallel::analytic_bubble_fraction(pp, vpp, m);
  EXPECT_LE(to_seconds(makespan),
            to_seconds(m * vpp * (f + b)) * (1.0 + 2.5 * bubble) + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScheduleProperty,
    ::testing::Values(ScheduleCase{2, 1, 4}, ScheduleCase{2, 2, 4},
                      ScheduleCase{4, 1, 8}, ScheduleCase{4, 2, 8},
                      ScheduleCase{4, 3, 16}, ScheduleCase{8, 1, 8},
                      ScheduleCase{8, 2, 16}, ScheduleCase{8, 6, 32},
                      ScheduleCase{3, 4, 9}, ScheduleCase{6, 2, 12}),
    [](const auto& info) {
      return "pp" + std::to_string(info.param.pp) + "vpp" +
             std::to_string(info.param.vpp) + "m" +
             std::to_string(info.param.m);
    });

// ================================================= collective plan sweep

class PlanProperty : public ::testing::TestWithParam<int> {};

TEST_P(PlanProperty, AllGatherCompleteness) {
  const int n = GetParam();
  auto plan = collective::ring_all_gather_plan(n, static_cast<Bytes>(n) * 4096);
  std::vector<std::set<int>> owned(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) owned[static_cast<std::size_t>(i)].insert(i);
  for (const auto& round : plan) {
    std::vector<std::pair<int, int>> deliveries;
    for (const auto& s : round) {
      ASSERT_TRUE(owned[static_cast<std::size_t>(s.src)].count(s.chunk));
      deliveries.emplace_back(s.dst, s.chunk);
    }
    for (auto [dst, chunk] : deliveries) {
      owned[static_cast<std::size_t>(dst)].insert(chunk);
    }
  }
  for (const auto& o : owned) EXPECT_EQ(o.size(), static_cast<std::size_t>(n));
}

TEST_P(PlanProperty, AllReduceBytesMatchTheory) {
  const int n = GetParam();
  const Bytes total = static_cast<Bytes>(n) * 4096;
  auto plan = collective::ring_all_reduce_plan(n, total);
  // Ring all-reduce: every rank sends 2*(n-1)/n*S.
  const Bytes expected = 2 * (total / n) * (n - 1);
  std::vector<Bytes> sent(static_cast<std::size_t>(n), 0);
  for (const auto& round : plan) {
    for (const auto& step : round) {
      sent[static_cast<std::size_t>(step.src)] += step.bytes;
    }
  }
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(sent[static_cast<std::size_t>(r)], expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, PlanProperty,
                         ::testing::Values(2, 3, 4, 5, 8, 12, 16, 32),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// ===================================================== topology sweep

struct TopoCase {
  int hosts, rails, hosts_per_tor, pods, aggs, spines;
};

class TopologyProperty : public ::testing::TestWithParam<TopoCase> {};

TEST_P(TopologyProperty, AllPairsConnectedOnEveryRail) {
  const auto p = GetParam();
  net::ClosParams cp;
  cp.hosts = p.hosts;
  cp.nics_per_host = p.rails;
  cp.hosts_per_tor = p.hosts_per_tor;
  cp.pods = p.pods;
  cp.aggs_per_pod = p.aggs;
  cp.spines_per_plane = p.spines;
  net::ClosTopology topo(cp);
  Rng rng(99);
  for (int trial = 0; trial < 24; ++trial) {
    const int a = static_cast<int>(rng.uniform_index(p.hosts));
    const int b = static_cast<int>(rng.uniform_index(p.hosts));
    if (a == b) continue;
    const int rail = static_cast<int>(rng.uniform_index(p.rails));
    auto paths = topo.ecmp_paths(a, b, rail);
    ASSERT_FALSE(paths.empty());
    for (const auto& path : paths) {
      EXPECT_EQ(topo.link(path.front()).src, topo.host(a));
      EXPECT_EQ(topo.link(path.back()).dst, topo.host(b));
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_EQ(topo.link(path[i]).dst, topo.link(path[i + 1]).src);
      }
    }
  }
}

TEST_P(TopologyProperty, PathCountsMatchFormula) {
  const auto p = GetParam();
  net::ClosParams cp;
  cp.hosts = p.hosts;
  cp.nics_per_host = p.rails;
  cp.hosts_per_tor = p.hosts_per_tor;
  cp.pods = p.pods;
  cp.aggs_per_pod = p.aggs;
  cp.spines_per_plane = p.spines;
  net::ClosTopology topo(cp);
  for (int a = 0; a < p.hosts; a += std::max(1, p.hosts / 8)) {
    for (int b = 0; b < p.hosts; b += std::max(1, p.hosts / 8)) {
      if (a == b) continue;
      const auto paths = topo.ecmp_paths(a, b, 0);
      const int tor_a = a / p.hosts_per_tor;
      const int tor_b = b / p.hosts_per_tor;
      if (tor_a == tor_b) {
        EXPECT_EQ(paths.size(), 1u);
      } else if (cp.pod_of_tor_index(tor_a) == cp.pod_of_tor_index(tor_b)) {
        EXPECT_EQ(paths.size(), static_cast<std::size_t>(p.aggs));
      } else {
        EXPECT_EQ(paths.size(), static_cast<std::size_t>(p.aggs * p.spines));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TopologyProperty,
    ::testing::Values(TopoCase{16, 1, 4, 2, 2, 2}, TopoCase{32, 2, 8, 2, 2, 2},
                      TopoCase{64, 4, 8, 4, 4, 2},
                      TopoCase{128, 8, 16, 2, 4, 4}),
    [](const auto& info) {
      return "h" + std::to_string(info.param.hosts) + "r" +
             std::to_string(info.param.rails) + "p" +
             std::to_string(info.param.pods);
    });

// ===================================================== flow sim sweep

class FlowSimProperty : public ::testing::TestWithParam<int> {};

TEST_P(FlowSimProperty, MakespanBoundedByBisectionAndLineRate) {
  const int hosts = GetParam();
  net::ClosParams p;
  p.hosts = hosts;
  p.nics_per_host = 1;
  p.hosts_per_tor = 4;
  p.pods = std::max(1, hosts / 16);
  p.aggs_per_pod = 2;
  p.spines_per_plane = 2;
  net::ClosTopology topo(p);
  Rng rng(7);
  auto flows = net::permutation_traffic(topo, rng);
  net::EcmpRouter router(topo);
  net::FlowSim sim(topo);
  const Bytes size = 256_MiB;
  int added = 0;
  for (const auto& f : flows) {
    auto path = router.route(f);
    if (path.empty()) continue;
    sim.add_flow(path, size);
    ++added;
  }
  ASSERT_GT(added, 0);
  sim.run();
  // Lower bound: a flow cannot beat its own line rate.
  const TimeNs line_rate_time = seconds(static_cast<double>(size) / p.nic_bw);
  for (std::size_t i = 0; i < sim.flow_count(); ++i) {
    EXPECT_GE(sim.result(static_cast<int>(i)).duration() + 1000,
              line_rate_time);
  }
  // Upper bound: total bytes over the slowest single link.
  EXPECT_LE(sim.makespan(),
            seconds(static_cast<double>(size) * added / p.nic_bw));
}

INSTANTIATE_TEST_SUITE_P(Hosts, FlowSimProperty,
                         ::testing::Values(8, 16, 32),
                         [](const auto& info) {
                           return "hosts" + std::to_string(info.param);
                         });

// ===================================================== mapping sweep

struct MappingCase {
  int tp, pp, dp;
};

class MappingProperty : public ::testing::TestWithParam<MappingCase> {};

TEST_P(MappingProperty, RoundTripAndGroupPartitions) {
  const auto [tp, pp, dp] = GetParam();
  parallel::ParallelConfig cfg{.tp = tp, .pp = pp, .dp = dp};
  std::map<int, int> tp_seen, dp_seen, pp_seen;
  for (int r = 0; r < cfg.world(); ++r) {
    EXPECT_EQ(parallel::rank_of(parallel::coord_of(r, cfg), cfg), r);
    for (int member : parallel::tp_group(r, cfg)) ++tp_seen[member];
    for (int member : parallel::dp_group(r, cfg)) ++dp_seen[member];
    for (int member : parallel::pp_group(r, cfg)) ++pp_seen[member];
  }
  // Every rank appears in exactly group-size many membership lists of each
  // kind (once per member's enumeration).
  for (int r = 0; r < cfg.world(); ++r) {
    EXPECT_EQ(tp_seen[r], tp);
    EXPECT_EQ(dp_seen[r], dp);
    EXPECT_EQ(pp_seen[r], pp);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MappingProperty,
    ::testing::Values(MappingCase{1, 1, 1}, MappingCase{8, 1, 1},
                      MappingCase{2, 3, 4}, MappingCase{8, 8, 4},
                      MappingCase{4, 2, 8}),
    [](const auto& info) {
      return "tp" + std::to_string(info.param.tp) + "pp" +
             std::to_string(info.param.pp) + "dp" +
             std::to_string(info.param.dp);
    });

// ===================================================== engine sweep

struct EngineCase {
  int gpus, batch;
};

class EngineProperty : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineProperty, MegaScaleAlwaysBeatsBaselineAndMfuSane) {
  const auto [gpus, batch] = GetParam();
  engine::JobConfig cfg;
  cfg.model = model::config_175b();
  cfg.par = parallel::ParallelConfig{.tp = 8, .pp = 8, .dp = gpus / 64,
                                     .vpp = 6};
  cfg.global_batch = batch;
  cfg.ops = model::OperatorProfile::megatron_baseline();
  cfg.overlap = engine::OverlapOptions::megatron_lm();
  ASSERT_EQ(engine::validate(cfg), "");
  const auto baseline = engine::simulate_iteration(cfg);

  cfg.model.parallel_block = true;
  cfg.model.attention = model::AttentionKind::kSlidingWindow;
  cfg.model.window = 512;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = engine::OverlapOptions::megascale();
  const auto megascale = engine::simulate_iteration(cfg);

  EXPECT_GT(baseline.mfu, 0.30);
  EXPECT_LT(baseline.mfu, 0.70);
  EXPECT_GT(megascale.mfu, baseline.mfu);
  EXPECT_LT(megascale.mfu, 0.75);
  EXPECT_LT(megascale.iteration_time, baseline.iteration_time);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineProperty,
    ::testing::Values(EngineCase{64, 64}, EngineCase{128, 128},
                      EngineCase{256, 256}, EngineCase{512, 768},
                      EngineCase{1024, 1024}),
    [](const auto& info) {
      return "g" + std::to_string(info.param.gpus) + "b" +
             std::to_string(info.param.batch);
    });

}  // namespace
}  // namespace ms
