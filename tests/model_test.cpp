#include <gtest/gtest.h>

#include "model/ops.h"
#include "model/transformer.h"

namespace ms::model {
namespace {

// ------------------------------------------------------------ parameters

TEST(Model, Table1Presets175B) {
  const auto cfg = config_175b();
  EXPECT_EQ(cfg.layers, 96);
  EXPECT_EQ(cfg.hidden, 12288);
  EXPECT_EQ(cfg.heads, 128);
  // ~175 billion parameters.
  EXPECT_NEAR(params_count(cfg) / 1e9, 175.0, 5.0);
}

TEST(Model, Table1Presets530B) {
  const auto cfg = config_530b();
  EXPECT_EQ(cfg.layers, 105);
  EXPECT_EQ(cfg.hidden, 20480);
  EXPECT_EQ(cfg.heads, 160);
  EXPECT_NEAR(params_count(cfg) / 1e9, 530.0, 10.0);
}

TEST(Model, Preset13B) {
  EXPECT_NEAR(params_count(config_13b()) / 1e9, 13.0, 1.0);
}

// ----------------------------------------------------------------- flops

TEST(Model, TrainFlopsApproximatelySixTimesParams) {
  // The classic rule: training FLOPs/token ~ 6 * params (dense part).
  const auto cfg = config_175b();
  const double ratio = train_flops_per_token(cfg) / params_count(cfg);
  EXPECT_NEAR(ratio, 6.0, 0.4);
}

TEST(Model, SlidingWindowReducesAttentionFlops) {
  auto cfg = config_175b();
  const auto full = forward_flops_per_token(cfg);
  cfg.attention = AttentionKind::kSlidingWindow;
  cfg.window = 512;
  const auto swa = forward_flops_per_token(cfg);
  EXPECT_LT(swa.attention, full.attention);
  EXPECT_DOUBLE_EQ(swa.dense, full.dense);  // dense part unchanged
  // O(s*w) vs O(s*s/2): causal span 512 - 512^2/4096 = 448 vs 1024.
  EXPECT_NEAR(swa.attention / full.attention, 448.0 / 1024.0, 0.01);
}

TEST(Model, ReferenceFlopsIgnoreSwa) {
  auto cfg = config_175b();
  const Flops reference_full = reference_train_flops_per_token(cfg);
  cfg.attention = AttentionKind::kSlidingWindow;
  cfg.window = 256;
  EXPECT_DOUBLE_EQ(reference_train_flops_per_token(cfg), reference_full);
  EXPECT_LT(train_flops_per_token(cfg), reference_full);
}

TEST(Model, MfuSanityAgainstPaperTable2) {
  // Paper Table 2, MegaScale @ 12288 GPUs: 1984k tokens/s at 55.2% MFU on
  // 312-TFLOPS GPUs. Our FLOPs accounting should land in that ballpark.
  const auto cfg = config_175b();
  const double m = mfu(cfg, 1984e3, 12288, tera(312.0));
  EXPECT_NEAR(m, 0.552, 0.05);
}

TEST(Model, MfuScalesLinearlyWithThroughput) {
  const auto cfg = config_175b();
  const double m1 = mfu(cfg, 100e3, 1024, tera(312.0));
  const double m2 = mfu(cfg, 200e3, 1024, tera(312.0));
  EXPECT_NEAR(m2, 2.0 * m1, 1e-12);
}

TEST(Model, AttentionSpanCausalHalf) {
  auto cfg = config_175b();
  EXPECT_DOUBLE_EQ(cfg.attention_span(), 1024.0);
  cfg.attention = AttentionKind::kSlidingWindow;
  cfg.window = 300;
  // Causal window: position t attends min(w, t) => mean w - w^2/(2s).
  EXPECT_DOUBLE_EQ(cfg.attention_span(), 300.0 - 300.0 * 300.0 / 4096.0);
  // A window as long as the sequence degenerates to full attention.
  cfg.window = 2048;
  EXPECT_DOUBLE_EQ(cfg.attention_span(), 1024.0);
}

// -------------------------------------------------------------- op costs

collective::GpuSpec a100() { return collective::GpuSpec{}; }

TEST(Ops, GemmTimeMatchesArithmetic) {
  const auto cfg = config_175b();
  OpCostModel m(cfg, OperatorProfile::megatron_baseline(), a100());
  // One layer, 2048 tokens, tp=8.
  const double h = cfg.hidden, f = cfg.ffn_hidden;
  const double flops = 2.0 * (4 * h * h + 2 * h * f) * 2048 / 8;
  const double expected_s = flops / (tera(312.0) * 0.70);
  EXPECT_NEAR(to_seconds(m.fwd_dense(2048, 8)), expected_s, 2e-5);
}

TEST(Ops, FlashAttention2Faster) {
  const auto cfg = config_175b();
  OpCostModel naive(cfg, OperatorProfile::megatron_baseline(), a100());
  OpCostModel flash(cfg, OperatorProfile::megascale(), a100());
  EXPECT_LT(flash.fwd_attention(2048, 8), naive.fwd_attention(2048, 8));
}

TEST(Ops, FusionReducesElementwiseTime) {
  const auto cfg = config_175b();
  OpCostModel unfused(cfg, OperatorProfile::megatron_baseline(), a100());
  OpCostModel fused(cfg, OperatorProfile::megascale(), a100());
  EXPECT_LT(fused.fwd_elementwise(2048), unfused.fwd_elementwise(2048));
}

TEST(Ops, ParallelBlockReducesElementwiseTime) {
  auto serial_cfg = config_175b();
  auto ptb_cfg = serial_cfg;
  ptb_cfg.parallel_block = true;
  const auto profile = OperatorProfile::megascale();
  OpCostModel serial(serial_cfg, profile, a100());
  OpCostModel ptb(ptb_cfg, profile, a100());
  EXPECT_LT(ptb.fwd_elementwise(2048), serial.fwd_elementwise(2048));
}

TEST(Ops, BackwardTwiceForwardGemms) {
  const auto cfg = config_175b();
  OpCostModel m(cfg, OperatorProfile::megascale(), a100());
  const TimeNs fwd = m.fwd_dense(2048, 8) + m.fwd_attention(2048, 8);
  const TimeNs bwd = m.bwd_layer(2048, 2048, 8) - m.fwd_elementwise(2048);
  EXPECT_EQ(bwd, 2 * fwd);
}

TEST(Ops, SwaSpeedsUpAttention) {
  auto cfg = config_175b();
  OpCostModel full(cfg, OperatorProfile::megascale(), a100());
  cfg.attention = AttentionKind::kSlidingWindow;
  cfg.window = 512;
  OpCostModel swa(cfg, OperatorProfile::megascale(), a100());
  EXPECT_LT(swa.fwd_attention(2048, 8), full.fwd_attention(2048, 8));
}

TEST(Ops, TensorParallelDividesGemmTime) {
  const auto cfg = config_175b();
  OpCostModel m(cfg, OperatorProfile::megascale(), a100());
  const double t1 = to_seconds(m.fwd_dense(2048, 1));
  const double t8 = to_seconds(m.fwd_dense(2048, 8));
  // Modulo the fixed launch overhead, tp=8 is 8x faster.
  EXPECT_NEAR(t1 / t8, 8.0, 0.2);
}

TEST(Ops, OptimizerStepScalesWithParams) {
  OpCostModel m(config_175b(), OperatorProfile::megascale(), a100());
  EXPECT_GT(m.optimizer_step(2e9), m.optimizer_step(1e9));
}

TEST(Ops, LogitsTimePositive) {
  OpCostModel m(config_175b(), OperatorProfile::megascale(), a100());
  EXPECT_GT(m.fwd_logits(2048, 8), 0);
}

}  // namespace
}  // namespace ms::model
