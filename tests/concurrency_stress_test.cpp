// Multi-threaded stress tests for the annotated concurrent subsystems:
// the §3.5 rendezvous stores and the §5 metrics registry. Deliberately
// tier-1 (fast, seconds) so every push runs them, and in the TSan CI leg
// so data races surface as hard failures, not flakes. The assertions are
// exact-count invariants: under races they fail loudly; under TSan any
// unsynchronized access is reported even when the counts survive.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "collective/kvstore.h"
#include "telemetry/metrics.h"

namespace {

using ms::collective::AsyncKvStore;
using ms::collective::BlockingKvStore;
using ms::collective::KvStore;
using ms::telemetry::MetricsRegistry;

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 200;

void hammer_store(KvStore& store) {
  // Phase 1: every thread publishes its own keys while concurrently
  // polling for a sibling's (wait + set racing on the same shard).
  std::vector<std::thread> pool;
  std::atomic<int> found{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&store, &found, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            "k" + std::to_string(t) + "." + std::to_string(i);
        store.set(key, std::to_string(i));
        store.add("total", 1);
      }
      // Wait on a key a *different* thread publishes (last of the ring
      // neighbour); exercises the blocking wait path under contention.
      const std::string peer = "k" + std::to_string((t + 1) % kThreads) +
                               "." + std::to_string(kOpsPerThread - 1);
      if (store.wait(peer, std::chrono::milliseconds(10000)).has_value()) {
        found.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();

  EXPECT_EQ(found.load(), kThreads);
  EXPECT_EQ(store.add("total", 0), kThreads * kOpsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    const auto v =
        store.get("k" + std::to_string(t) + "." + std::to_string(7));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, "7");
  }
}

TEST(ConcurrencyStress, AsyncKvStoreParallelSetGetWait) {
  AsyncKvStore store(/*shards=*/4);  // few shards -> real contention
  hammer_store(store);
}

TEST(ConcurrencyStress, BlockingKvStoreParallelSetGetWait) {
  BlockingKvStore store(std::chrono::microseconds(0));
  hammer_store(store);
}

TEST(ConcurrencyStress, MetricsRegistryParallelRegisterAndUpdate) {
  MetricsRegistry registry;
  // All threads race first-use registration of the SAME series (the
  // registry must hand every thread the same cell), race distinct
  // registrations (deque growth under load), and hammer a shared
  // histogram, while a reader thread snapshots concurrently.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto snap = registry.snapshot();
      for (const auto& s : snap.samples) EXPECT_FALSE(s.name.empty());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&registry, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        registry.counter("stress_shared_total").add();
        registry
            .counter("stress_labelled_total",
                     {{"thread", std::to_string(t)}})
            .add();
        registry.counter("stress_wave_" + std::to_string(i % 16)).add();
        registry.histogram("stress_latency").observe(static_cast<double>(i));
        registry.gauge("stress_depth", {{"thread", std::to_string(t)}})
            .set(static_cast<double>(i));
      }
    });
  }
  for (auto& th : pool) th.join();
  stop.store(true);
  reader.join();

  const auto snap = registry.snapshot();
  const auto* shared = snap.find("stress_shared_total");
  ASSERT_NE(shared, nullptr);
  EXPECT_DOUBLE_EQ(shared->value, kThreads * kOpsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    const auto* per = snap.find("stress_labelled_total",
                                {{"thread", std::to_string(t)}});
    ASSERT_NE(per, nullptr);
    EXPECT_DOUBLE_EQ(per->value, kOpsPerThread);
  }
  const auto* hist = snap.find("stress_latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.total(),
            static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  // 1 shared + kThreads labelled + 16 wave + 1 histogram + kThreads gauges.
  EXPECT_EQ(registry.series_count(),
            static_cast<std::size_t>(1 + kThreads + 16 + 1 + kThreads));
}

}  // namespace
