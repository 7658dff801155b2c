// Tests for the third extension batch: activation recomputation and the
// launch-skew analyzer.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "diag/skew.h"
#include "engine/job.h"
#include "model/memory.h"

namespace ms {
namespace {

// ------------------------------------------------------ recompute option

engine::JobConfig recompute_config() {
  engine::JobConfig cfg;
  cfg.model = model::config_175b();
  cfg.model.parallel_block = true;
  cfg.par = parallel::ParallelConfig{.tp = 8, .pp = 8, .dp = 4, .vpp = 6};
  cfg.global_batch = 256;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = engine::OverlapOptions::megascale();
  return cfg;
}

TEST(Recompute, CostsRoughlyOneExtraForward) {
  auto cfg = recompute_config();
  const auto base = engine::simulate_iteration(cfg);
  cfg.full_recompute = true;
  const auto recompute = engine::simulate_iteration(cfg);
  const double ratio = to_seconds(recompute.iteration_time) /
                       to_seconds(base.iteration_time);
  // fwd:bwd ~ 1:2 => adding one fwd to bwd ~ +33% on the pipeline body.
  EXPECT_GT(ratio, 1.15);
  EXPECT_LT(ratio, 1.45);
  EXPECT_LT(recompute.mfu, base.mfu);
}

TEST(Recompute, CutsActivationMemoryByTheFactorRatio) {
  parallel::ParallelConfig par{.tp = 8, .pp = 8, .dp = 4, .vpp = 1};
  model::MemoryConfig selective;
  selective.activation_factor = model::MemoryConfig::kSelectiveRecompute;
  model::MemoryConfig full;
  full.activation_factor = model::MemoryConfig::kFullRecompute;
  const auto cfg = model::config_175b();
  const auto mem_sel = model::peak_memory(cfg, par, 8, selective);
  const auto mem_full = model::peak_memory(cfg, par, 8, full);
  EXPECT_NEAR(mem_sel.activations / mem_full.activations, 17.0, 0.01);
  EXPECT_DOUBLE_EQ(mem_sel.weights, mem_full.weights);
}

// ------------------------------------------------------------ skew tool

TEST(Skew, NoSkewOnSynchronizedRanks) {
  diag::LaunchSkewAnalyzer analyzer;
  for (int step = 0; step < 50; ++step) {
    for (int rank = 0; rank < 4; ++rank) {
      analyzer.record(step, rank, step * seconds(10.0));
    }
  }
  EXPECT_EQ(analyzer.skew_at(10), 0);
  EXPECT_NEAR(analyzer.skew_growth_per_step(), 0.0, 1e-12);
  EXPECT_TRUE(analyzer.drifting_ranks(1e-6).empty());
}

TEST(Skew, BoundedJitterHasNoTrend) {
  diag::LaunchSkewAnalyzer analyzer;
  Rng rng(1);
  for (int step = 0; step < 200; ++step) {
    for (int rank = 0; rank < 4; ++rank) {
      analyzer.record(step, rank,
                      step * seconds(10.0) +
                          static_cast<TimeNs>(rng.uniform(0, 1e6)));
    }
  }
  EXPECT_LT(std::fabs(analyzer.skew_growth_per_step()), 2e-6);
}

TEST(Skew, GrowingStaggerDetected) {
  // The §6.3 pathology: one rank's launch offset random-walks away.
  diag::LaunchSkewAnalyzer analyzer;
  Rng rng(2);
  double drift = 0.0;
  for (int step = 0; step < 300; ++step) {
    for (int rank = 0; rank < 4; ++rank) {
      TimeNs t = step * seconds(10.0);
      if (rank == 2) t += seconds(drift);
      analyzer.record(step, rank, t);
    }
    drift += std::fabs(rng.normal(0.0, 0.002));  // growing stagger
  }
  EXPECT_GT(analyzer.skew_growth_per_step(), 1e-4);
  const auto drifting = analyzer.drifting_ranks(1e-4);
  ASSERT_EQ(drifting.size(), 1u);
  EXPECT_EQ(drifting[0], 2);
}

TEST(Skew, SkewAtMatchesMaxMinusMin) {
  diag::LaunchSkewAnalyzer analyzer;
  analyzer.record(5, 0, seconds(1.0));
  analyzer.record(5, 1, seconds(1.2));
  analyzer.record(5, 2, seconds(0.9));
  EXPECT_EQ(analyzer.skew_at(5), seconds(0.3));
  EXPECT_EQ(analyzer.skew_at(99), 0);  // unknown step
}

}  // namespace
}  // namespace ms
