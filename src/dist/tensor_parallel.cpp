#include "dist/tensor_parallel.h"

#include <cassert>

namespace ms::dist {

namespace {

/// Copies columns [begin, begin+count) of a full [rows, cols] leaf tensor
/// into a fresh leaf tensor (a weight shard owned by one simulated GPU).
Tensor copy_cols(const Tensor& full, int begin, int count) {
  const int rows = full.dim(0), cols = full.dim(1);
  std::vector<float> data(static_cast<std::size_t>(rows) * count);
  for (int i = 0; i < rows; ++i) {
    std::copy_n(full.data() + static_cast<std::size_t>(i) * cols + begin, count,
                &data[static_cast<std::size_t>(i) * count]);
  }
  return Tensor::from(std::move(data), {rows, count}, /*requires_grad=*/true);
}

Tensor copy_rows(const Tensor& full, int begin, int count) {
  const int cols = full.dim(1);
  std::vector<float> data(static_cast<std::size_t>(count) * cols);
  std::copy_n(full.data() + static_cast<std::size_t>(begin) * cols,
              static_cast<std::size_t>(count) * cols, data.data());
  return Tensor::from(std::move(data), {count, cols}, /*requires_grad=*/true);
}

Tensor copy_slice_1d(const Tensor& full, int begin, int count) {
  std::vector<float> data(full.data() + begin, full.data() + begin + count);
  return Tensor::from(std::move(data), {count}, /*requires_grad=*/true);
}

}  // namespace

ColumnParallelLinear::ColumnParallelLinear(const Tensor& full_weight,
                                           const Tensor& full_bias,
                                           int shards) {
  assert(shards >= 1);
  const int out = full_weight.dim(1);
  assert(out % shards == 0);
  const int per = out / shards;
  for (int s = 0; s < shards; ++s) {
    weights_.push_back(copy_cols(full_weight, s * per, per));
    biases_.push_back(copy_slice_1d(full_bias, s * per, per));
  }
}

std::vector<Tensor> ColumnParallelLinear::forward_sharded(const Tensor& x) const {
  std::vector<Tensor> outs;
  outs.reserve(weights_.size());
  for (std::size_t s = 0; s < weights_.size(); ++s) {
    outs.push_back(optim::add(optim::matmul(x, weights_[s]), biases_[s]));
  }
  return outs;
}

RowParallelLinear::RowParallelLinear(const Tensor& full_weight,
                                     const Tensor& full_bias, int shards)
    : bias_(Tensor::from(
          std::vector<float>(full_bias.data(),
                             full_bias.data() + full_bias.numel()),
          {full_weight.dim(1)}, /*requires_grad=*/true)) {
  assert(shards >= 1);
  const int in = full_weight.dim(0);
  assert(in % shards == 0);
  const int per = in / shards;
  for (int s = 0; s < shards; ++s) {
    weights_.push_back(copy_rows(full_weight, s * per, per));
  }
}

Tensor RowParallelLinear::forward_sharded(
    const std::vector<Tensor>& x_shards) const {
  assert(x_shards.size() == weights_.size());
  std::vector<Tensor> partials;
  partials.reserve(weights_.size());
  for (std::size_t s = 0; s < weights_.size(); ++s) {
    partials.push_back(optim::matmul(x_shards[s], weights_[s]));
  }
  // The all-reduce of the partial sums, then the (replicated) bias once.
  return optim::add(optim::add_n(partials), bias_);
}

TensorParallelMlp::TensorParallelMlp(const Tensor& fc1_weight,
                                     const Tensor& fc1_bias,
                                     const Tensor& fc2_weight,
                                     const Tensor& fc2_bias, int shards)
    : fc1_(fc1_weight, fc1_bias, shards),
      fc2_(fc2_weight, fc2_bias, shards) {}

Tensor TensorParallelMlp::forward(const Tensor& x) const {
  // Column-parallel up-projection; GeLU applies per shard (no comm);
  // row-parallel down-projection merges with one all-reduce.
  std::vector<Tensor> hidden = fc1_.forward_sharded(x);
  for (auto& h : hidden) h = optim::gelu(h);
  return fc2_.forward_sharded(hidden);
}

}  // namespace ms::dist
