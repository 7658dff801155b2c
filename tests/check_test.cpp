// Tests for the correctness-auditing subsystem (src/check): the invariant
// auditor, the engine's determinism digest, and the MS_AUDIT hooks wired
// through the sim/net/collective/ft layers. Every suite here resets the
// process-wide Auditor so a clean scenario can assert "zero violations,
// many checks" and an injected violation can assert exactly one tally.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/audit.h"
#include "check/digest.h"
#include "collective/comm.h"
#include "core/rng.h"
#include "ft/faults.h"
#include "ft/workflow.h"
#include "net/ccsim_multi.h"
#include "net/flowsim.h"
#include "net/topology.h"
#include "sim/engine.h"
#include "sim/graph.h"

namespace ms {
namespace {

constexpr bool kAuditEnabled =
#if defined(MS_AUDIT_ENABLED) && MS_AUDIT_ENABLED
    true;
#else
    false;
#endif

class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override { check::Auditor::instance().reset(); }
  void TearDown() override { check::Auditor::instance().reset(); }
};

// Suites asserting on tallies need the auditor compiled in; they skip
// cleanly under -DMS_AUDIT=OFF (MacroMatchesBuildConfig covers that mode).
class AuditEnabledTest : public CheckTest {
 protected:
  void SetUp() override {
    if (!kAuditEnabled) GTEST_SKIP() << "MS_AUDIT compiled out";
    CheckTest::SetUp();
  }
};

TEST(CheckAuditConfig, MacroMatchesBuildConfig) {
  check::Auditor::instance().reset();
  int evals = 0;
  MS_AUDIT("test.domain", "probe_pass", (++evals, true), "unreachable");
  MS_AUDIT("test.domain", "probe_fail", (++evals, false), "injected");
  if (kAuditEnabled) {
    EXPECT_EQ(evals, 2);
    EXPECT_EQ(check::Auditor::instance().violations(), 1u);
  } else {
    // Compiled out: the condition expression is never even evaluated.
    EXPECT_EQ(evals, 0);
    EXPECT_EQ(check::Auditor::instance().violations(), 0u);
  }
  check::Auditor::instance().reset();
}

// ----------------------------------------------------------- the auditor

using CheckAudit = AuditEnabledTest;

TEST_F(CheckAudit, PassingChecksTallyNoViolations) {
  MS_AUDIT("test.domain", "always_true", 1 + 1 == 2, "unreachable");
  EXPECT_GE(check::Auditor::instance().checks(), 1u);
  EXPECT_EQ(check::Auditor::instance().violations(), 0u);
  EXPECT_TRUE(check::Auditor::instance().snapshot().empty());
}

TEST_F(CheckAudit, ViolationsAreTalliedPerInvariant) {
  MS_AUDIT("test.domain", "broken", false, "first failure");
  MS_AUDIT("test.domain", "broken", false, "second failure");
  MS_AUDIT("test.domain", "other", false, "unrelated");
  auto& auditor = check::Auditor::instance();
  EXPECT_EQ(auditor.violations(), 3u);
  EXPECT_EQ(auditor.violations("test.domain", "broken"), 2u);
  EXPECT_EQ(auditor.violations("test.domain", "other"), 1u);
  EXPECT_EQ(auditor.violations("test.domain", "missing"), 0u);
  const auto snap = auditor.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].domain, "test.domain");
  EXPECT_EQ(snap[0].invariant, "broken");
  EXPECT_EQ(snap[0].count, 2u);
  EXPECT_EQ(snap[0].message, "second failure");  // latest message retained
}

TEST_F(CheckAudit, MessageOnlyEvaluatedOnFailure) {
  int renders = 0;
  // [[maybe_unused]]: under -DMS_AUDIT=OFF the macro discards its message
  // argument, so the lambda is never called (this suite is then skipped).
  [[maybe_unused]] auto expensive = [&renders] {
    ++renders;
    return std::string("rendered");
  };
  MS_AUDIT("test.domain", "fine", true, expensive());
  EXPECT_EQ(renders, 0);
  MS_AUDIT("test.domain", "bad", false, expensive());
  EXPECT_EQ(renders, 1);
}

TEST_F(CheckAudit, ResetClearsTallies) {
  MS_AUDIT("test.domain", "broken", false, "detail");
  check::Auditor::instance().reset();
  EXPECT_EQ(check::Auditor::instance().checks(), 0u);
  EXPECT_EQ(check::Auditor::instance().violations(), 0u);
  EXPECT_TRUE(check::Auditor::instance().snapshot().empty());
}

// ----------------------------------------- injected violations are caught

using CheckInjection = AuditEnabledTest;

TEST_F(CheckInjection, EngineCatchesScheduleIntoThePast) {
  sim::Engine e;
  TimeNs fired_at = -1;
  e.at(seconds(2.0), [&] {
    // Deliberate violation: schedule behind the clock. The auditor flags
    // it and the engine clamps the event to now() to stay monotone.
    e.at(seconds(1.0), [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(check::Auditor::instance().violations("sim.engine",
                                                  "schedule_not_in_past"),
            1u);
  EXPECT_EQ(check::Auditor::instance().violations("sim.engine",
                                                  "time_monotonic"),
            0u);  // the clamp kept execution monotone
  EXPECT_EQ(fired_at, seconds(2.0));
}

// --------------------------------------------- clean runs audit clean

using CheckCleanRun = AuditEnabledTest;

net::ClosParams small_clos() {
  net::ClosParams p;
  p.hosts = 32;
  p.nics_per_host = 2;
  p.hosts_per_tor = 8;
  p.pods = 2;
  p.aggs_per_pod = 2;
  p.spines_per_plane = 2;
  return p;
}

TEST_F(CheckCleanRun, FlowSimConservesBytes) {
  net::ClosTopology topo(small_clos());
  net::FlowSim fs(topo);
  Rng rng(0xF10);
  for (int i = 0; i < 24; ++i) {
    const int src = static_cast<int>(rng.uniform(0, 16));
    const int dst = 16 + static_cast<int>(rng.uniform(0, 16));
    auto paths = topo.ecmp_paths(src, dst, 0);
    fs.add_flow(paths[static_cast<std::size_t>(rng.uniform(
                    0, static_cast<double>(paths.size())))],
                (1 + i % 4) * 1_MiB, milliseconds(static_cast<double>(i)));
  }
  fs.run();
  EXPECT_GT(check::Auditor::instance().checks(), 0u);
  EXPECT_EQ(check::Auditor::instance().violations(), 0u);
}

TEST_F(CheckCleanRun, CcSimQueueAndRatesStayBounded) {
  for (auto make : {
           std::function<std::unique_ptr<net::CcAlgorithm>()>(
               [] { return std::make_unique<net::Dcqcn>(); }),
           std::function<std::unique_ptr<net::CcAlgorithm>()>(
               [] { return std::make_unique<net::Swift>(); }),
           std::function<std::unique_ptr<net::CcAlgorithm>()>(
               [] { return std::make_unique<net::MegaScaleCc>(); }),
       }) {
    net::MultiCcParams params = net::incast_params(8);
    params.duration_s = 0.01;
    (void)net::run_multi_cc_sim(params, make);
    (void)net::run_multi_cc_sim(net::victim_params(8), make);
  }
  EXPECT_GT(check::Auditor::instance().checks(), 0u);
  EXPECT_EQ(check::Auditor::instance().violations(), 0u);
}

TEST_F(CheckCleanRun, CollectiveCostsMonotoneInBytes) {
  collective::CollectiveModel model(collective::ClusterSpec{});
  for (const auto domain :
       {collective::Domain::kIntraNode, collective::Domain::kInterNode}) {
    for (int ranks : {2, 8, 64}) {
      TimeNs prev = -1;
      for (Bytes b = 4_KiB; b <= 1_GiB; b *= 4) {
        const TimeNs t = model.all_reduce(b, ranks, domain);
        EXPECT_GE(t, prev);
        prev = t;
        model.all_gather(b, ranks, domain);
        model.reduce_scatter(b, ranks, domain);
        model.send_recv(b, domain);
      }
    }
  }
  EXPECT_GT(check::Auditor::instance().checks(), 0u);
  EXPECT_EQ(check::Auditor::instance().violations(), 0u);
}

TEST_F(CheckCleanRun, FtWorkflowAccountingCloses) {
  ft::WorkflowConfig cfg;
  cfg.nodes = 32;
  Rng rng(11);
  const TimeNs duration = days(3.0);
  const auto faults = ft::draw_fault_schedule(
      duration, hours(6.0), cfg.nodes, ft::default_fault_mix(), rng);
  const auto report = ft::run_robust_training(cfg, duration, faults, rng);
  EXPECT_GT(report.restarts, 0);
  EXPECT_GT(check::Auditor::instance().checks(), 0u);
  EXPECT_EQ(check::Auditor::instance().violations(), 0u);
}

// ------------------------------------------------------- digest mechanics

using CheckDigest = CheckTest;

TEST_F(CheckDigest, OrderSensitive) {
  check::Digest a, b;
  a.fold(std::uint64_t{1});
  a.fold(std::uint64_t{2});
  b.fold(std::uint64_t{2});
  b.fold(std::uint64_t{1});
  EXPECT_NE(a.value(), b.value());
}

TEST_F(CheckDigest, StringFoldsAreDelimited) {
  check::Digest a, b;
  a.fold("ab");
  a.fold("c");
  b.fold("a");
  b.fold("bc");
  EXPECT_NE(a.value(), b.value());
}

TEST_F(CheckDigest, EmptyDigestsEqual) {
  check::Digest a, b;
  EXPECT_EQ(a.value(), b.value());
  a.fold(std::uint64_t{0});
  EXPECT_NE(a.value(), b.value());  // folding zero still advances the state
  a.reset();
  EXPECT_EQ(a.value(), b.value());
}

// ----------------------------------------------- engine digest determinism

// A sec5_observability-style workload: a pipelined op graph with
// seed-dependent durations driven through the real engine, plus a tail of
// 200 random-delay events scheduled directly on the event queue.
struct ScenarioRun {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
};

ScenarioRun run_scenario(std::uint64_t seed) {
  sim::Engine e;
  Rng rng(seed);

  sim::GraphExecutor g(4);
  std::vector<sim::OpId> prev_stage;
  for (int stage = 0; stage < 4; ++stage) {
    std::vector<sim::OpId> ops;
    for (int micro = 0; micro < 8; ++micro) {
      const TimeNs d = microseconds(rng.uniform(50.0, 500.0));
      ops.push_back(g.add_op(
          {.name = "op", .stream = stage, .duration = d}));
      if (stage > 0) {
        g.add_dep(prev_stage[static_cast<std::size_t>(micro)], ops.back());
      }
    }
    prev_stage = ops;
  }
  g.run(e);

  for (int i = 0; i < 200; ++i) {
    e.after(microseconds(rng.uniform(1.0, 100.0)), [] {});
  }
  e.run();
  return {e.digest(), e.executed()};
}

TEST_F(CheckDigest, SameSeedSameDigest) {
  EXPECT_EQ(run_scenario(0x5EED).digest, run_scenario(0x5EED).digest);
  EXPECT_EQ(run_scenario(42).digest, run_scenario(42).digest);
}

TEST_F(CheckDigest, DifferentSeedsDifferentDigests) {
  EXPECT_NE(run_scenario(0x5EED).digest, run_scenario(0x5EED + 1).digest);
  EXPECT_NE(run_scenario(1).digest, run_scenario(2).digest);
}

// Pins the event order itself: the first reordered event, from any change
// to the queue or the executor, moves these values. 264 events = 32 ops
// x (issue + finish) + 200 tail events.
TEST_F(CheckDigest, ScenarioDigestsArePinned) {
  const ScenarioRun a = run_scenario(0x5EED);
  EXPECT_EQ(a.digest, 0xb25b3112836129b9ull);
  EXPECT_EQ(a.executed, 264u);
  const ScenarioRun b = run_scenario(42);
  EXPECT_EQ(b.digest, 0x83a74824404b7901ull);
  EXPECT_EQ(b.executed, 264u);
}

}  // namespace
}  // namespace ms
