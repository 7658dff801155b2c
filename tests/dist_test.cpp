// Numerical-equivalence tests for the functional parallelism module:
// ring collectives on real data, Megatron tensor-parallel layers, gradient
// accumulation (pipeline microbatching), and ZeRO-2 data parallelism.
#include <gtest/gtest.h>

#include <cmath>

#include "dist/collectives.h"
#include "dist/data_parallel.h"
#include "dist/tensor_parallel.h"
#include "optim/trainer.h"

namespace ms::dist {
namespace {

using optim::Tensor;

// ------------------------------------------------------------ collectives

TEST(Collectives, RingAllReduceMatchesElementwiseSum) {
  for (int n : {2, 4, 8}) {
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<Buffer> bufs(static_cast<std::size_t>(n));
    Buffer expected(static_cast<std::size_t>(n) * 16, 0.0f);
    for (auto& b : bufs) {
      b.resize(expected.size());
      for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = static_cast<float>(rng.normal());
        expected[i] += b[i];
      }
    }
    std::vector<Buffer*> ptrs;
    for (auto& b : bufs) ptrs.push_back(&b);
    ring_all_reduce_sum(ptrs);
    for (const auto& b : bufs) {
      for (std::size_t i = 0; i < b.size(); ++i) {
        EXPECT_NEAR(b[i], expected[i], 1e-4) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Collectives, ReduceScatterThenAllGatherEqualsAllReduce) {
  Rng rng(3);
  constexpr int kRanks = 4;
  std::vector<Buffer> inputs(kRanks, Buffer(32));
  for (auto& b : inputs) {
    for (auto& x : b) x = static_cast<float>(rng.normal());
  }
  std::vector<const Buffer*> in_ptrs;
  for (auto& b : inputs) in_ptrs.push_back(&b);
  auto shards = reduce_scatter_sum(in_ptrs, kRanks);
  std::vector<const Buffer*> shard_ptrs;
  for (auto& s : shards) shard_ptrs.push_back(&s);
  Buffer gathered = all_gather_concat(shard_ptrs);

  auto copies = inputs;
  std::vector<Buffer*> copy_ptrs;
  for (auto& b : copies) copy_ptrs.push_back(&b);
  ring_all_reduce_sum(copy_ptrs);
  ASSERT_EQ(gathered.size(), copies[0].size());
  for (std::size_t i = 0; i < gathered.size(); ++i) {
    EXPECT_NEAR(gathered[i], copies[0][i], 1e-5);
  }
}

// -------------------------------------------------------- tensor parallel

// Columns [begin, begin + count) of a 2-D tensor, as a fresh leaf.
Tensor cols(const Tensor& a, int begin, int count) {
  const int m = a.dim(0), n = a.dim(1);
  std::vector<float> out;
  for (int i = 0; i < m; ++i) {
    const float* row = a.data() + static_cast<std::size_t>(i) * n + begin;
    out.insert(out.end(), row, row + count);
  }
  return Tensor::from(std::move(out), {m, count});
}

TEST(TensorParallel, ColumnParallelForwardMatchesSerial) {
  Rng rng(10);
  auto w = Tensor::randn({8, 12}, rng, 0.5f, true);
  auto b = Tensor::randn({12}, rng, 0.5f, true);
  auto x = Tensor::randn({5, 8}, rng, 0.5f);
  const Tensor serial = optim::add(optim::matmul(x, w), b);
  for (int shards : {2, 3, 4}) {
    ColumnParallelLinear cp(w, b, shards);
    const auto parallel = cp.forward_sharded(x);
    ASSERT_EQ(parallel.size(), static_cast<std::size_t>(shards));
    const int per = 12 / shards;
    for (int s = 0; s < shards; ++s) {
      const Tensor want = cols(serial, s * per, per);
      const Tensor& got = parallel[static_cast<std::size_t>(s)];
      ASSERT_EQ(got.shape(), want.shape());
      for (std::int64_t i = 0; i < want.numel(); ++i) {
        EXPECT_NEAR(got.data()[i], want.data()[i], 1e-5)
            << "shards=" << shards << " s=" << s;
      }
    }
  }
}

TEST(TensorParallel, RowParallelForwardMatchesSerial) {
  Rng rng(11);
  auto w = Tensor::randn({12, 6}, rng, 0.5f, true);
  auto b = Tensor::randn({6}, rng, 0.5f, true);
  auto x = Tensor::randn({5, 12}, rng, 0.5f);
  const Tensor serial = optim::add(optim::matmul(x, w), b);
  for (int shards : {2, 3, 4}) {
    RowParallelLinear rp(w, b, shards);
    const int per = 12 / shards;
    std::vector<Tensor> x_shards;
    for (int s = 0; s < shards; ++s) x_shards.push_back(cols(x, s * per, per));
    const Tensor parallel = rp.forward_sharded(x_shards);
    for (std::int64_t i = 0; i < serial.numel(); ++i) {
      EXPECT_NEAR(parallel.data()[i], serial.data()[i], 1e-5)
          << "shards=" << shards;
    }
  }
}

TEST(TensorParallel, ColumnParallelGradientsMatchWeightSlices) {
  Rng rng(12);
  auto w = Tensor::randn({6, 8}, rng, 0.5f, true);
  auto b = Tensor::randn({8}, rng, 0.5f, true);
  auto x = Tensor::randn({4, 6}, rng, 0.5f);

  // Serial gradients.
  Tensor serial_out = optim::add(optim::matmul(x, w), b);
  optim::sum(optim::mul(serial_out, serial_out)).backward();

  // Parallel gradients: the same loss, summed over the output shards.
  ColumnParallelLinear cp(w, b, 2);
  std::vector<Tensor> shard_losses;
  for (const Tensor& out : cp.forward_sharded(x)) {
    shard_losses.push_back(optim::sum(optim::mul(out, out)));
  }
  optim::add_n(shard_losses).backward();

  // Shard s's weight grad must equal the matching column slice of dW.
  for (int s = 0; s < 2; ++s) {
    const auto& shard = cp.weight_shards()[static_cast<std::size_t>(s)];
    for (int i = 0; i < 6; ++i) {
      for (int j = 0; j < 4; ++j) {
        const float serial_grad = w.grad()[i * 8 + s * 4 + j];
        const float shard_grad =
            const_cast<Tensor&>(shard).grad()[i * 4 + j];
        EXPECT_NEAR(shard_grad, serial_grad, 1e-4);
      }
    }
  }
}

TEST(TensorParallel, MlpMatchesSerialMlp) {
  Rng rng(13);
  const int h = 8, f = 16, tokens = 5;
  auto w1 = Tensor::randn({h, f}, rng, 0.5f, true);
  auto b1 = Tensor::randn({f}, rng, 0.2f, true);
  auto w2 = Tensor::randn({f, h}, rng, 0.5f, true);
  auto b2 = Tensor::randn({h}, rng, 0.2f, true);
  auto x = Tensor::randn({tokens, h}, rng, 0.5f);

  const Tensor serial = optim::add(
      optim::matmul(optim::gelu(optim::add(optim::matmul(x, w1), b1)), w2),
      b2);

  for (int shards : {2, 4}) {
    TensorParallelMlp mlp(w1, b1, w2, b2, shards);
    const Tensor parallel = mlp.forward(x);
    for (std::int64_t i = 0; i < serial.numel(); ++i) {
      EXPECT_NEAR(parallel.data()[i], serial.data()[i], 1e-4)
          << "shards=" << shards;
    }
  }
}

TEST(TensorParallel, ShardLocalGeluNeedsColumnThenRowOrder) {
  // The defining Megatron trick: GeLU between a column-parallel and a
  // row-parallel layer requires NO communication. Verify the sharded
  // hidden activations are literally column slices of the serial hidden.
  Rng rng(14);
  auto w1 = Tensor::randn({4, 8}, rng, 0.5f, true);
  auto b1 = Tensor::randn({8}, rng, 0.2f, true);
  auto x = Tensor::randn({3, 4}, rng, 0.5f);
  ColumnParallelLinear cp(w1, b1, 2);
  auto hidden = cp.forward_sharded(x);
  const Tensor serial_hidden = optim::add(optim::matmul(x, w1), b1);
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 4; ++j) {
        EXPECT_NEAR(hidden[static_cast<std::size_t>(s)].data()[i * 4 + j],
                    serial_hidden.data()[i * 8 + s * 4 + j], 1e-5);
      }
    }
  }
}

// ----------------------------------- gradient accumulation (pipeline/PP)

TEST(GradAccumulation, MicrobatchSumEqualsFullBatch) {
  // The property pipeline parallelism relies on: accumulating the
  // (1/B-scaled) gradients of B microbatches equals the full-batch
  // gradient of the mean loss.
  optim::TinyGptConfig cfg;
  cfg.vocab = 16;
  cfg.seq_len = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn_hidden = 32;
  optim::MarkovCorpus corpus(16, 3, 55);
  Rng data_rng(56);
  std::vector<std::vector<int>> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(corpus.sample_sequence(cfg.seq_len + 1, data_rng));
  }

  Rng init(57);
  optim::TinyGpt microbatched(cfg, init);
  for (const auto& seq : batch) {
    optim::scale(microbatched.loss(seq), 0.25f).backward();
  }

  Rng init2(57);
  optim::TinyGpt reference(cfg, init2);
  // "Full batch": mean of the four losses built as one graph.
  std::vector<Tensor> losses;
  for (const auto& seq : batch) {
    losses.push_back(optim::scale(reference.loss(seq), 0.25f));
  }
  optim::add_n({optim::add_n({losses[0], losses[1]}),
                optim::add_n({losses[2], losses[3]})})
      .backward();

  auto p1 = microbatched.parameters();
  auto p2 = reference.parameters();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    for (std::int64_t j = 0; j < p1[i].tensor.numel(); ++j) {
      EXPECT_NEAR(p1[i].tensor.grad()[j], p2[i].tensor.grad()[j], 2e-4)
          << p1[i].name;
    }
  }
}

// --------------------------------------------------------- data parallel

optim::TinyGptConfig dp_config() {
  optim::TinyGptConfig cfg;
  cfg.vocab = 16;
  cfg.seq_len = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn_hidden = 32;
  return cfg;
}

TEST(Zero2Dp, ReplicasStartIdentical) {
  Zero2DataParallel dp(dp_config(), 4, 99);
  EXPECT_DOUBLE_EQ(dp.max_replica_divergence(), 0.0);
}

TEST(Zero2Dp, StepMatchesSingleProcessAdam) {
  const auto cfg = dp_config();
  optim::MarkovCorpus corpus(16, 3, 60);
  Rng data_rng(61);
  std::vector<std::vector<int>> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(corpus.sample_sequence(cfg.seq_len + 1, data_rng));
  }

  // Distributed: 4 replicas, ZeRO-2.
  Zero2DataParallel dp(cfg, 4, /*init_seed=*/62);
  const double dp_loss = dp.step(batch, 1e-3f);

  // Reference: one process, full batch, stock Adam.
  Rng init(62);
  optim::TinyGpt reference(cfg, init);
  optim::Adam adam(reference.parameters());
  adam.zero_grad();
  double ref_loss = 0;
  for (const auto& seq : batch) {
    Tensor loss = optim::scale(reference.loss(seq), 1.0f / 8.0f);
    loss.backward();
    ref_loss += loss.item() * 8.0;
  }
  ref_loss /= 8.0;
  adam.step(1e-3f);

  EXPECT_NEAR(dp_loss, ref_loss, 1e-4);
  const Buffer dp_params = dp.flat_params(0);
  const Buffer ref_params = flatten_params(adam.params(), 4);
  ASSERT_EQ(dp_params.size(), ref_params.size());
  for (std::size_t i = 0; i < ref_params.size(); ++i) {
    EXPECT_NEAR(dp_params[i], ref_params[i], 2e-4) << "param " << i;
  }
}

TEST(Zero2Dp, MultiStepStaysInSyncAndConverges) {
  const auto cfg = dp_config();
  optim::MarkovCorpus corpus(16, 3, 70);
  Rng data_rng(71);
  Zero2DataParallel dp(cfg, 2, 72);
  double first = 0, last = 0;
  for (int step = 0; step < 30; ++step) {
    std::vector<std::vector<int>> batch;
    for (int i = 0; i < 4; ++i) {
      batch.push_back(corpus.sample_sequence(cfg.seq_len + 1, data_rng));
    }
    last = dp.step(batch, 3e-3f);
    if (step == 0) first = last;
    ASSERT_LT(dp.max_replica_divergence(), 1e-6) << "step " << step;
  }
  EXPECT_LT(last, first);  // actually learning
}

TEST(Zero2Dp, FlattenRoundTrip) {
  Rng rng(80);
  optim::TinyGpt model(dp_config(), rng);
  auto params = model.parameters();
  Buffer flat = flatten_params(params, 4);
  // Perturb and write back.
  for (auto& x : flat) x += 1.0f;
  unflatten_into_params(flat, params);
  Buffer again = flatten_params(params, 4);
  for (std::size_t i = 0; i + 4 < flat.size(); ++i) {
    EXPECT_FLOAT_EQ(again[i], flat[i]);
  }
}

}  // namespace
}  // namespace ms::dist
