// Megatron-style tensor parallelism, executed functionally (§2).
//
// The classic sharding: the first GEMM of a block is COLUMN-parallel (each
// shard owns a slice of output features, so the nonlinearity can be applied
// locally), the second is ROW-parallel (each shard owns a slice of input
// features and produces a partial sum, merged by an all-reduce). These
// layers run on the real autograd substrate with one weight shard per
// simulated GPU, and are verified numerically equivalent — values AND
// gradients — to the unsharded computation (dist_test.cpp).
#pragma once

#include <vector>

#include "optim/autograd.h"

namespace ms::dist {

using optim::Tensor;

/// y_i = x @ W_i + b_i: output features sharded, one slice per shard.
class ColumnParallelLinear {
 public:
  /// Splits a full [in, out] weight / [out] bias into `shards` leaf tensors
  /// (out % shards == 0).
  ColumnParallelLinear(const Tensor& full_weight, const Tensor& full_bias,
                       int shards);

  /// Per-shard forward WITHOUT a merging all-gather — for the
  /// shard-local nonlinearity pattern (apply GeLU to this, then feed the
  /// row-parallel layer shard-wise).
  std::vector<Tensor> forward_sharded(const Tensor& x) const;

  const std::vector<Tensor>& weight_shards() const { return weights_; }
  const std::vector<Tensor>& bias_shards() const { return biases_; }
  int shards() const { return static_cast<int>(weights_.size()); }

 private:
  std::vector<Tensor> weights_;  // each [in, out/k]
  std::vector<Tensor> biases_;   // each [out/k]
};

/// y = sum_i(x_i @ W_i) + b: input features sharded; partial outputs merged
/// by an all-reduce (add_n here).
class RowParallelLinear {
 public:
  /// Splits a full [in, out] weight along rows (in % shards == 0); the bias
  /// stays whole (added once after the reduction).
  RowParallelLinear(const Tensor& full_weight, const Tensor& full_bias,
                    int shards);

  /// Pre-sharded inputs (outputs of a column-parallel layer, one per GPU).
  Tensor forward_sharded(const std::vector<Tensor>& x_shards) const;

  const std::vector<Tensor>& weight_shards() const { return weights_; }
  int shards() const { return static_cast<int>(weights_.size()); }

 private:
  std::vector<Tensor> weights_;  // each [in/k, out]
  Tensor bias_;                  // [out]
};

/// The Megatron MLP: column-parallel up-projection, shard-local GeLU,
/// row-parallel down-projection — one all-reduce per forward, zero
/// communication inside the nonlinearity.
class TensorParallelMlp {
 public:
  TensorParallelMlp(const Tensor& fc1_weight, const Tensor& fc1_bias,
                    const Tensor& fc2_weight, const Tensor& fc2_bias,
                    int shards);
  Tensor forward(const Tensor& x) const;

  const ColumnParallelLinear& fc1() const { return fc1_; }
  const RowParallelLinear& fc2() const { return fc2_; }

 private:
  ColumnParallelLinear fc1_;
  RowParallelLinear fc2_;
};

}  // namespace ms::dist
