// Tests for held-out LM evaluation.
#include <gtest/gtest.h>

#include <cmath>

#include "optim/trainer.h"

namespace ms::optim {
namespace {

TinyGptConfig tiny() {
  TinyGptConfig cfg;
  cfg.vocab = 16;
  cfg.seq_len = 16;
  cfg.hidden = 32;
  cfg.heads = 4;
  cfg.layers = 2;
  cfg.ffn_hidden = 64;
  return cfg;
}

TEST(Evaluate, UntrainedModelNearUniformLoss) {
  Rng rng(1);
  TinyGpt model(tiny(), rng);
  MarkovCorpus corpus(16, 3, 2);
  Rng data(3);
  const double loss = evaluate_lm(model, corpus, 8, data);
  EXPECT_NEAR(loss, std::log(16.0), 0.4);
}

TEST(Evaluate, TrainingImprovesHeldOutLoss) {
  Rng rng(4);
  TinyGpt model(tiny(), rng);
  MarkovCorpus corpus(16, 3, 5);
  Rng eval_rng1(6);
  const double before = evaluate_lm(model, corpus, 8, eval_rng1);
  Adam opt(model.parameters());
  TrainConfig tc;
  tc.steps = 80;
  tc.batch_size = 4;
  tc.lr = 3e-3f;
  Rng data(7);
  train_lm(model, opt, corpus, tc, data);
  Rng eval_rng2(6);  // same held-out stream
  const double after = evaluate_lm(model, corpus, 8, eval_rng2);
  EXPECT_LT(after, before - 0.3);
}

}  // namespace
}  // namespace ms::optim
