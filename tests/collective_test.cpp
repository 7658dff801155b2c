#include <gtest/gtest.h>

#include <map>
#include <set>

#include "collective/bootstrap.h"
#include "collective/comm.h"
#include "collective/kvstore.h"
#include "collective/plan.h"
#include "net/flowsim.h"
#include "net/topology.h"

namespace ms::collective {
namespace {

// ------------------------------------------------------------ cost model

TEST(CollectiveModel, AllReduceAlphaBetaFormula) {
  ClusterSpec c;
  CollectiveModel m(c, 1.0);
  const Bytes s = 1_GiB;
  const int n = 8;
  const double expected_s =
      2.0 * (n - 1.0) / n * static_cast<double>(s) / c.nvlink_bw;
  const TimeNs expected =
      seconds(expected_s) + 2 * (n - 1) * c.nvlink_latency;
  EXPECT_EQ(m.all_reduce(s, n, Domain::kIntraNode), expected);
}

TEST(CollectiveModel, AllGatherHalfOfAllReduce) {
  ClusterSpec c;
  c.nvlink_latency = 0;  // isolate the bandwidth term
  CollectiveModel m(c, 1.0);
  const Bytes s = 1_GiB;
  EXPECT_NEAR(static_cast<double>(m.all_reduce(s, 16, Domain::kIntraNode)),
              2.0 * static_cast<double>(m.all_gather(s, 16, Domain::kIntraNode)),
              1e3);
}

TEST(CollectiveModel, SingleRankIsFree) {
  CollectiveModel m(ClusterSpec{});
  EXPECT_EQ(m.all_reduce(1_GiB, 1, Domain::kInterNode), 0);
  EXPECT_EQ(m.all_gather(1_GiB, 1, Domain::kIntraNode), 0);
}

TEST(CollectiveModel, ZeroBytesIsFree) {
  CollectiveModel m(ClusterSpec{});
  EXPECT_EQ(m.all_reduce(0, 64, Domain::kInterNode), 0);
  EXPECT_EQ(m.send_recv(0, Domain::kInterNode), 0);
}

TEST(CollectiveModel, NetworkEfficiencyScalesBandwidth) {
  ClusterSpec c;
  CollectiveModel full(c, 1.0), degraded(c, 0.5);
  const TimeNs t_full = full.all_reduce(1_GiB, 64, Domain::kInterNode);
  const TimeNs t_deg = degraded.all_reduce(1_GiB, 64, Domain::kInterNode);
  EXPECT_GT(t_deg, t_full);
  // Bandwidth term doubles; latency term unchanged.
  const TimeNs lat = 2 * 63 * c.net_latency;
  EXPECT_NEAR(static_cast<double>(t_deg - lat),
              2.0 * static_cast<double>(t_full - lat), 1e5);
}

TEST(CollectiveModel, IntraNodeFasterThanInterNode) {
  CollectiveModel m(ClusterSpec{});
  EXPECT_LT(m.all_reduce(1_GiB, 8, Domain::kIntraNode),
            m.all_reduce(1_GiB, 8, Domain::kInterNode));
}

TEST(CollectiveModel, BandwidthTermDominatesForLargeSizes) {
  // For large payloads, doubling size ~doubles time.
  CollectiveModel m(ClusterSpec{});
  const TimeNs t1 = m.all_reduce(1_GiB, 64, Domain::kInterNode);
  const TimeNs t2 = m.all_reduce(2_GiB, 64, Domain::kInterNode);
  EXPECT_NEAR(static_cast<double>(t2) / static_cast<double>(t1), 2.0, 0.05);
}

TEST(CollectiveModel, LatencyTermDominatesForTinySizes) {
  CollectiveModel m(ClusterSpec{});
  const TimeNs t = m.all_reduce(1_KiB, 64, Domain::kInterNode);
  EXPECT_GE(t, 2 * 63 * ClusterSpec{}.net_latency);
  EXPECT_LT(t, 2 * 63 * ClusterSpec{}.net_latency + milliseconds(1.0));
}

TEST(CollectiveModel, SendRecvLinear) {
  CollectiveModel m(ClusterSpec{});
  const TimeNs t1 = m.send_recv(100_MiB, Domain::kInterNode);
  const TimeNs t2 = m.send_recv(200_MiB, Domain::kInterNode);
  EXPECT_GT(t2, t1);
  EXPECT_NEAR(static_cast<double>(t2 - ClusterSpec{}.net_latency),
              2.0 * static_cast<double>(t1 - ClusterSpec{}.net_latency), 1e4);
}

// ------------------------------------------------------------------ plans

// Property: after executing the all-gather plan, every rank owns all chunks.
TEST(Plan, AllGatherDeliversAllChunksToAllRanks) {
  for (int n : {2, 3, 4, 8, 16}) {
    auto plan = ring_all_gather_plan(n, static_cast<Bytes>(n) * 1000);
    EXPECT_EQ(plan.size(), static_cast<std::size_t>(n - 1));
    std::vector<std::set<int>> owned(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) owned[static_cast<std::size_t>(i)].insert(i);
    for (const auto& round : plan) {
      // Senders must own what they send *before* this round.
      std::vector<std::pair<int, int>> deliveries;
      for (const auto& s : round) {
        ASSERT_TRUE(owned[static_cast<std::size_t>(s.src)].count(s.chunk))
            << "rank " << s.src << " sends chunk " << s.chunk
            << " it does not own (n=" << n << ")";
        deliveries.emplace_back(s.dst, s.chunk);
      }
      for (auto [dst, chunk] : deliveries) {
        owned[static_cast<std::size_t>(dst)].insert(chunk);
      }
    }
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(owned[static_cast<std::size_t>(i)].size(),
                static_cast<std::size_t>(n))
          << "rank " << i << " missing chunks (n=" << n << ")";
    }
  }
}

// Property: reduce-scatter accumulates exactly n contributions of chunk
// (i+1) mod n at rank i.
TEST(Plan, ReduceScatterAccumulatesAllContributions) {
  for (int n : {2, 4, 8}) {
    auto plan = ring_reduce_scatter_plan(n, static_cast<Bytes>(n) * 1000);
    // contributions[rank][chunk] = set of source ranks folded in.
    std::vector<std::map<int, std::set<int>>> contrib(
        static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int c = 0; c < n; ++c) contrib[static_cast<std::size_t>(i)][c] = {i};
    }
    for (const auto& round : plan) {
      std::vector<std::tuple<int, int, std::set<int>>> transfers;
      for (const auto& s : round) {
        transfers.emplace_back(s.dst, s.chunk,
                               contrib[static_cast<std::size_t>(s.src)][s.chunk]);
      }
      for (auto& [dst, chunk, set] : transfers) {
        contrib[static_cast<std::size_t>(dst)][chunk].insert(set.begin(),
                                                             set.end());
      }
    }
    for (int i = 0; i < n; ++i) {
      const int expected_chunk = (i + 1) % n;
      EXPECT_EQ(contrib[static_cast<std::size_t>(i)][expected_chunk].size(),
                static_cast<std::size_t>(n))
          << "rank " << i << " chunk " << expected_chunk << " incomplete";
    }
  }
}

// Property: all-reduce plan = every rank ends owning the fully-reduced data.
TEST(Plan, AllReducePlanHasTwoPhases) {
  const int n = 8;
  auto plan = ring_all_reduce_plan(n, 8000);
  EXPECT_EQ(plan.size(), static_cast<std::size_t>(2 * (n - 1)));
}

TEST(Plan, BytesSentMatchesAlphaBetaNumerator) {
  const int n = 8;
  const Bytes total = 8000;
  auto plan = ring_all_gather_plan(n, total);
  const auto sent_by = [&plan](int rank) {
    Bytes sent = 0;
    for (const auto& round : plan) {
      for (const auto& step : round) sent += step.src == rank ? step.bytes : 0;
    }
    return sent;
  };
  // Ring all-gather: each rank sends (n-1)/n * total.
  EXPECT_EQ(sent_by(0), total / n * (n - 1));
  EXPECT_EQ(sent_by(3), total / n * (n - 1));
}

TEST(Plan, SingleRankPlansAreEmpty) {
  EXPECT_TRUE(ring_all_gather_plan(1, 1000).empty());
  EXPECT_TRUE(ring_all_reduce_plan(1, 1000).empty());
}

// --------------------------------- cost model vs flow simulator (fidelity)

// Execute a ring all-gather's rounds on the max-min-fair flow simulator
// over hosts packed under one ToR and compare with the alpha-beta formula
// (zero-latency, since the fluid simulator has no per-hop latency).
TEST(Plan, RingAllGatherMatchesFlowSimUnderOneTor) {
  net::ClosParams np;
  np.hosts = 8;
  np.nics_per_host = 1;
  np.hosts_per_tor = 8;
  np.pods = 1;
  np.aggs_per_pod = 1;
  np.spines_per_plane = 1;
  net::ClosTopology topo(np);

  const int n = 8;
  const Bytes total = static_cast<Bytes>(8e9);  // 1 GB chunks
  auto plan = ring_all_gather_plan(n, total);

  TimeNs sim_total = 0;
  for (const auto& round : plan) {
    net::FlowSim sim(topo);
    for (const auto& s : round) {
      sim.add_flow(topo.ecmp_paths(s.src, s.dst, 0)[0], s.bytes);
    }
    sim.run();
    sim_total += sim.makespan();
  }

  ClusterSpec c;
  c.nic_bw = np.nic_bw;
  c.net_latency = 0;
  CollectiveModel model(c, 1.0);
  const TimeNs predicted = model.all_gather(total, n, Domain::kInterNode);
  EXPECT_NEAR(to_seconds(sim_total), to_seconds(predicted), 0.01);
}

// -------------------------------------------------------------- kv stores

TEST(KvStore, BlockingSetGetRoundTrip) {
  BlockingKvStore store(std::chrono::microseconds(0));
  store.set("k", "v");
  EXPECT_EQ(store.get("k"), std::optional<std::string>("v"));
  EXPECT_EQ(store.get("missing"), std::nullopt);
}

TEST(KvStore, AsyncSetGetRoundTrip) {
  AsyncKvStore store;
  store.set("k", "v");
  EXPECT_EQ(store.get("k"), std::optional<std::string>("v"));
  EXPECT_EQ(store.get("missing"), std::nullopt);
}

TEST(KvStore, AddIsAtomicCounter) {
  AsyncKvStore store;
  EXPECT_EQ(store.add("c", 1), 1);
  EXPECT_EQ(store.add("c", 2), 3);
  EXPECT_EQ(store.add("c", -3), 0);
}

TEST(KvStore, ConcurrentAddsAllCounted) {
  AsyncKvStore store;
  constexpr int kThreads = 8, kIncrements = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) store.add("c", 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.get("c"), std::to_string(kThreads * kIncrements));
}

TEST(KvStore, WaitBlocksUntilSet) {
  AsyncKvStore store;
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    store.set("late", "value");
  });
  auto v = store.wait("late", std::chrono::milliseconds(2000));
  setter.join();
  EXPECT_EQ(v, std::optional<std::string>("value"));
}

TEST(KvStore, WaitTimesOut) {
  AsyncKvStore store;
  EXPECT_EQ(store.wait("never", std::chrono::milliseconds(30)), std::nullopt);
}

TEST(KvStore, BlockingWaitTimesOut) {
  BlockingKvStore store(std::chrono::microseconds(0));
  EXPECT_EQ(store.wait("never", std::chrono::milliseconds(30)), std::nullopt);
}

TEST(KvStore, BarrierReleasesAllParticipants) {
  AsyncKvStore store;
  constexpr int kWorld = 8;
  std::atomic<int> released{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kWorld; ++r) {
    threads.emplace_back([&] {
      ASSERT_TRUE(store_barrier(store, "b", kWorld));
      released.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(released.load(), kWorld);
}

TEST(KvStore, BarrierTimesOutWhenParticipantMissing) {
  AsyncKvStore store;
  // Only 1 of 2 arrives.
  EXPECT_FALSE(store_barrier(store, "b", 2, std::chrono::milliseconds(50)));
}

TEST(KvStore, GroupInitCompletesBothModes) {
  AsyncKvStore store1;
  auto ordered = run_group_init(store1, 16, 4, /*global_barrier=*/false);
  EXPECT_TRUE(ordered.ok);
  AsyncKvStore store2;
  auto global = run_group_init(store2, 16, 4, /*global_barrier=*/true);
  EXPECT_TRUE(global.ok);
}

// The §3.5 headline, demonstrated with real threads: blocking store +
// global barriers is dramatically slower than async store + ordered init.
TEST(KvStore, OrderedAsyncInitMuchFasterThanBlockingGlobal) {
  constexpr int kWorld = 32, kGroupSize = 4;
  BlockingKvStore blocking(std::chrono::microseconds(50));
  auto slow = run_group_init(blocking, kWorld, kGroupSize,
                             /*global_barrier=*/true);
  ASSERT_TRUE(slow.ok);

  AsyncKvStore async_store;
  auto fast = run_group_init(async_store, kWorld, kGroupSize,
                             /*global_barrier=*/false);
  ASSERT_TRUE(fast.ok);

  EXPECT_LT(fast.wall_time.count() * 3, slow.wall_time.count())
      << "fast=" << fast.wall_time.count()
      << "us slow=" << slow.wall_time.count() << "us";
}

// ------------------------------------------------------------- bootstrap

TEST(Bootstrap, ReproducesPaperMilestones) {
  BootstrapConfig cfg;
  cfg.world_size = 2048;

  cfg.store = StoreKind::kTcpStore;
  cfg.ordered_init = false;
  const double t_naive = to_seconds(estimate_init_time(cfg).init_time);
  EXPECT_NEAR(t_naive, 1047.0, 60.0);

  cfg.store = StoreKind::kRedis;
  const double t_redis = to_seconds(estimate_init_time(cfg).init_time);
  EXPECT_NEAR(t_redis, 361.0, 25.0);

  cfg.ordered_init = true;
  const double t_ordered = to_seconds(estimate_init_time(cfg).init_time);
  EXPECT_LT(t_ordered, 5.0);
}

TEST(Bootstrap, TenThousandGpusUnderThirtySeconds) {
  BootstrapConfig cfg;
  cfg.world_size = 12288;
  cfg.store = StoreKind::kRedis;
  cfg.ordered_init = true;
  EXPECT_LT(to_seconds(estimate_init_time(cfg).init_time), 30.0);
}

TEST(Bootstrap, NaiveScalesQuadratically) {
  BootstrapConfig cfg;
  cfg.store = StoreKind::kTcpStore;
  cfg.ordered_init = false;
  cfg.world_size = 2048;
  const double t1 = to_seconds(estimate_init_time(cfg).init_time);
  cfg.world_size = 4096;
  const double t2 = to_seconds(estimate_init_time(cfg).init_time);
  EXPECT_NEAR(t2 / t1, 4.0, 0.5);
}

TEST(Bootstrap, OrderedScalesLinearly) {
  BootstrapConfig cfg;
  cfg.store = StoreKind::kRedis;
  cfg.ordered_init = true;
  cfg.world_size = 2048;
  const double t1 = to_seconds(estimate_init_time(cfg).init_time);
  cfg.world_size = 4096;
  const double t2 = to_seconds(estimate_init_time(cfg).init_time);
  EXPECT_NEAR(t2 / t1, 2.0, 0.2);
}

TEST(Bootstrap, OpCountsMatchStructure) {
  BootstrapConfig cfg;
  cfg.world_size = 512;
  cfg.tp = 8;
  cfg.pp = 8;
  auto est = estimate_init_time(cfg);
  // groups = 512/8 + 512/8 + 64 = 192.
  EXPECT_DOUBLE_EQ(est.group_count, 192.0);
  // join ops = 2 * 3n = 3072; naive adds groups*n.
  EXPECT_DOUBLE_EQ(est.total_store_ops, 192.0 * 512 + 3072);
}

}  // namespace
}  // namespace ms::collective
