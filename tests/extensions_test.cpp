// Tests for the design-choice extensions: GPipe vs 1F1B schedules, the
// per-GPU memory model, and ZeRO stage 1/2/3 communication trade-offs.
#include <gtest/gtest.h>

#include "engine/job.h"
#include "model/memory.h"
#include "parallel/pipeline.h"

namespace ms {
namespace {

using parallel::gpipe_schedule_for_stage;
using parallel::PassType;
using parallel::peak_inflight_microbatches;
using parallel::schedule_for_stage;

// ----------------------------------------------------------- schedules

TEST(Gpipe, AllForwardsThenAllBackwards) {
  auto sched = gpipe_schedule_for_stage(4, 1, 8);
  ASSERT_EQ(sched.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(sched[static_cast<std::size_t>(i)].pass, PassType::kForward);
    EXPECT_EQ(sched[static_cast<std::size_t>(i)].microbatch, i);
  }
  for (int i = 8; i < 16; ++i) {
    EXPECT_EQ(sched[static_cast<std::size_t>(i)].pass, PassType::kBackward);
  }
}

TEST(Gpipe, BackwardDrainsInReverse) {
  auto sched = gpipe_schedule_for_stage(2, 0, 4);
  EXPECT_EQ(sched[4].microbatch, 3);  // first backward = freshest forward
  EXPECT_EQ(sched[7].microbatch, 0);
}

TEST(Inflight, GpipeKeepsAllMicrobatchesAlive) {
  EXPECT_EQ(peak_inflight_microbatches(gpipe_schedule_for_stage(4, 0, 32)),
            32);
}

TEST(Inflight, OneFOneBBoundedByDepth) {
  // Classic 1F1B stage 0 keeps ~pp microbatches alive regardless of m.
  const int pp = 8;
  for (int m : {16, 64, 256}) {
    const int peak =
        peak_inflight_microbatches(schedule_for_stage(pp, 0, 1, m));
    EXPECT_LE(peak, pp);
    EXPECT_GE(peak, pp - 1);
  }
}

TEST(Inflight, InterleavedSlightlyHigherThanClassic) {
  const int classic =
      peak_inflight_microbatches(schedule_for_stage(8, 0, 1, 64));
  const int interleaved =
      peak_inflight_microbatches(schedule_for_stage(8, 0, 6, 64));
  // Interleaving warms up more chunk-passes, but stays O(pp * vpp), far
  // below GPipe's O(m * vpp).
  EXPECT_GT(interleaved, classic);
  EXPECT_LT(interleaved, 64 * 6);
}

TEST(Inflight, LaterStagesHoldLess) {
  const int first = peak_inflight_microbatches(schedule_for_stage(8, 0, 1, 32));
  const int last = peak_inflight_microbatches(schedule_for_stage(8, 7, 1, 32));
  EXPECT_GT(first, last);
}

// --------------------------------------------------------------- memory

TEST(Memory, PaperLayoutFitsA100) {
  // 175B, tp8 pp8 vpp6, dp 192 (12288 GPUs), interleaved 1F1B.
  parallel::ParallelConfig par{.tp = 8, .pp = 8, .dp = 192, .vpp = 6};
  const int inflight = peak_inflight_microbatches(
      schedule_for_stage(par.pp, 0, par.vpp, 32 * par.pp / par.pp * 8));
  const auto breakdown =
      model::peak_memory(model::config_175b(), par, inflight);
  EXPECT_LT(breakdown.total(), 80e9);
  EXPECT_GT(breakdown.total(), 10e9);  // not trivially small either
}

TEST(Memory, GpipeBlowsUpAtLargeMicrobatchCounts) {
  parallel::ParallelConfig par{.tp = 8, .pp = 8, .dp = 4, .vpp = 1};
  const auto cfg = model::config_175b();
  const int gpipe_inflight =
      peak_inflight_microbatches(gpipe_schedule_for_stage(8, 0, 192));
  const int f1b_inflight =
      peak_inflight_microbatches(schedule_for_stage(8, 0, 1, 192));
  const double hbm = model::MemoryConfig{}.gpu_hbm_bytes;
  EXPECT_GT(model::peak_memory(cfg, par, gpipe_inflight).total(), hbm);
  EXPECT_LE(model::peak_memory(cfg, par, f1b_inflight).total(), hbm);
}

TEST(Memory, Zero3ShardsWeights) {
  parallel::ParallelConfig z2{.tp = 8, .pp = 8, .dp = 16, .vpp = 1,
                              .zero_stage = 2};
  parallel::ParallelConfig z3 = z2;
  z3.zero_stage = 3;
  const auto cfg = model::config_175b();
  EXPECT_LT(model::peak_memory(cfg, z3, 8).weights,
            model::peak_memory(cfg, z2, 8).weights);
  EXPECT_DOUBLE_EQ(model::peak_memory(cfg, z3, 8).weights,
                   model::peak_memory(cfg, z2, 8).weights / 16.0);
}

TEST(Memory, ZeroStageShrinksOptimizerAndGrads) {
  parallel::ParallelConfig z0{.tp = 8, .pp = 8, .dp = 16, .vpp = 1,
                              .zero_stage = 0};
  parallel::ParallelConfig z1 = z0;
  z1.zero_stage = 1;
  parallel::ParallelConfig z2 = z0;
  z2.zero_stage = 2;
  const auto cfg = model::config_175b();
  const auto m0 = model::peak_memory(cfg, z0, 8);
  const auto m1 = model::peak_memory(cfg, z1, 8);
  const auto m2 = model::peak_memory(cfg, z2, 8);
  EXPECT_LT(m1.optimizer, m0.optimizer);
  EXPECT_DOUBLE_EQ(m1.gradients, m0.gradients);
  EXPECT_LT(m2.gradients, m1.gradients);
}

TEST(Memory, ActivationsScaleWithInflight) {
  parallel::ParallelConfig par{.tp = 8, .pp = 8, .dp = 4, .vpp = 1};
  const auto cfg = model::config_175b();
  const auto low = model::peak_memory(cfg, par, 4);
  const auto high = model::peak_memory(cfg, par, 8);
  EXPECT_DOUBLE_EQ(high.activations, 2.0 * low.activations);
  EXPECT_DOUBLE_EQ(high.weights, low.weights);
}

TEST(Memory, TensorParallelDividesActivations) {
  parallel::ParallelConfig tp8{.tp = 8, .pp = 8, .dp = 4, .vpp = 1};
  parallel::ParallelConfig tp4{.tp = 4, .pp = 8, .dp = 4, .vpp = 1};
  const auto cfg = model::config_175b();
  EXPECT_LT(model::peak_memory(cfg, tp8, 8).activations,
            model::peak_memory(cfg, tp4, 8).activations);
}

// ------------------------------------------------------- engine + gpipe

engine::JobConfig schedule_config(engine::PipelineSchedule schedule) {
  engine::JobConfig cfg;
  cfg.model = model::config_175b();
  cfg.model.parallel_block = true;
  cfg.par = parallel::ParallelConfig{.tp = 8, .pp = 8, .dp = 4, .vpp = 1};
  cfg.global_batch = 256;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = engine::OverlapOptions::megascale();
  cfg.schedule = schedule;
  return cfg;
}

TEST(EngineSchedule, GpipeAndOneFOneBSameBubbleDifferentMemory) {
  const auto gpipe =
      engine::simulate_iteration(schedule_config(engine::PipelineSchedule::kGpipe));
  const auto f1b = engine::simulate_iteration(
      schedule_config(engine::PipelineSchedule::kOneFOneB));
  // Equal compute volume: iteration times are within a few percent (the
  // bubble fraction is identical; only ordering differs).
  const double ratio = to_seconds(gpipe.iteration_time) /
                       to_seconds(f1b.iteration_time);
  EXPECT_NEAR(ratio, 1.0, 0.08);
}

TEST(EngineSchedule, GpipeRejectsInterleaving) {
  auto cfg = schedule_config(engine::PipelineSchedule::kGpipe);
  cfg.par.vpp = 2;
  EXPECT_NE(engine::validate(cfg), "");
}

TEST(EngineZero, Stage1CostsMoreCommThanStage2) {
  auto cfg = schedule_config(engine::PipelineSchedule::kOneFOneB);
  cfg.overlap = engine::OverlapOptions::megatron_lm();  // expose DP comm
  cfg.par.zero_stage = 2;
  const auto z2 = engine::simulate_iteration(cfg);
  cfg.par.zero_stage = 1;
  const auto z1 = engine::simulate_iteration(cfg);
  EXPECT_GT(z1.iteration_time, z2.iteration_time);
}

TEST(EngineZero, Stage3CostsMoreCommThanStage2) {
  auto cfg = schedule_config(engine::PipelineSchedule::kOneFOneB);
  cfg.overlap = engine::OverlapOptions::megatron_lm();
  cfg.par.zero_stage = 2;
  const auto z2 = engine::simulate_iteration(cfg);
  cfg.par.zero_stage = 3;
  const auto z3 = engine::simulate_iteration(cfg);
  EXPECT_GT(z3.iteration_time, z2.iteration_time);
}

}  // namespace
}  // namespace ms
