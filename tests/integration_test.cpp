// Cross-module integration tests: the pieces of the stack working together
// the way the production system composes them.
#include <gtest/gtest.h>

#include "diag/heatmap.h"
#include "diag/timeline.h"
#include "dist/data_parallel.h"
#include "engine/job.h"
#include "engine/perturb.h"
#include "optim/trainer.h"
#include "support/builders.h"

namespace ms {
namespace {

using testsupport::small_tinygpt;

// ---------------------- engine spans feed the diagnosis tools ------------

TEST(Integration, EngineSpansDriveTimelineAndBubbleAccounting) {
  engine::JobConfig cfg;
  cfg.model = model::config_175b();
  cfg.model.layers = 48;
  cfg.par = parallel::ParallelConfig{.tp = 8, .pp = 4, .dp = 1, .vpp = 2};
  cfg.global_batch = 8;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = engine::OverlapOptions::megascale();
  const auto result = engine::simulate_iteration(cfg);

  diag::TimelineTrace trace;
  for (const auto& rec : result.spans) {
    if (rec.tag != "fwd" && rec.tag != "bwd") continue;
    trace.add({.rank = rec.stream / 4, .name = rec.name, .tag = rec.tag,
               .start = rec.start, .end = rec.end});
  }
  // Every stage shows nonzero busy and nonzero bubble inside the iteration.
  for (int stage = 0; stage < 4; ++stage) {
    const TimeNs idle = trace.idle_time(stage, 0, result.iteration_time);
    EXPECT_GT(idle, 0) << "stage " << stage;
    EXPECT_LT(idle, result.iteration_time) << "stage " << stage;
  }
  // The JSON trace exports cleanly.
  EXPECT_GT(trace.chrome_trace_json().size(), 100u);
}

TEST(Integration, StragglerFoldShowsUpInHeatmapAndMfu) {
  engine::JobConfig cfg;
  cfg.model = model::config_175b();
  cfg.model.parallel_block = true;
  cfg.par = parallel::ParallelConfig{.tp = 8, .pp = 8, .dp = 4, .vpp = 6};
  cfg.global_batch = 256;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = engine::OverlapOptions::megascale();
  const auto base = engine::simulate_iteration(cfg);

  std::vector<double> speeds(32, 1.0);
  speeds[13] = 1.10;
  const auto fold = engine::fold_stragglers(base, cfg, speeds);
  EXPECT_LT(fold.mfu, base.mfu);

  // The same speeds, observed through the CUDA-event monitor, localize the
  // straggler the MFU drop came from.
  diag::PerformanceHeatmap hm;
  for (int m = 0; m < 32; ++m) {
    for (int step = 0; step < 10; ++step) {
      hm.add_sample(m, "fwd", 0.01 * speeds[static_cast<std::size_t>(m)]);
    }
  }
  const auto outliers = hm.outliers(0.05);
  ASSERT_EQ(outliers.size(), 1u);
  EXPECT_EQ(outliers[0], 13);
}

// ---------------------- DP training + straggler-free determinism ---------

TEST(Integration, DpTrainerDeterministicAcrossRuns) {
  const auto cfg = small_tinygpt();
  optim::MarkovCorpus corpus(16, 3, 700);
  auto run = [&] {
    dist::Zero2DataParallel dp(cfg, 2, 701);
    Rng data(702);
    double loss = 0;
    for (int step = 0; step < 5; ++step) {
      std::vector<std::vector<int>> batch;
      for (int i = 0; i < 4; ++i) {
        batch.push_back(corpus.sample_sequence(cfg.seq_len + 1, data));
      }
      loss = dp.step(batch, 1e-3f);
    }
    return std::make_pair(loss, dp.flat_params(0));
  };
  const auto [loss_a, params_a] = run();
  const auto [loss_b, params_b] = run();
  EXPECT_DOUBLE_EQ(loss_a, loss_b);
  EXPECT_EQ(params_a, params_b);
}

}  // namespace
}  // namespace ms
