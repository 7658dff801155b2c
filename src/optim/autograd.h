// Minimal reverse-mode automatic differentiation.
//
// This is a *real* numeric substrate, not a simulation: the convergence
// microbenchmarks of MegaScale §6.2 (Figure 10) are reproduced by actually
// training small transformer language models with it. Tensors are
// value-semantic handles to shared nodes; operations record a backward
// closure on a tape implied by the parent graph; Tensor::backward performs
// a topological sweep. Gradient correctness of every operation is verified
// against finite differences in optim_test.cpp.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/rng.h"

namespace ms::optim {

struct Node {
  std::vector<float> value;
  std::vector<float> grad;   // allocated lazily when requires_grad
  std::vector<int> shape;
  bool requires_grad = false;
  std::function<void()> backward_fn;  // empty for leaves
  std::vector<std::shared_ptr<Node>> parents;

  std::int64_t numel() const {
    std::int64_t n = 1;
    for (int d : shape) n *= d;
    return n;
  }
  void ensure_grad() {
    if (grad.empty()) grad.assign(value.size(), 0.0f);
  }
};

class Tensor {
 public:
  Tensor() = default;

  static Tensor zeros(std::vector<int> shape, bool requires_grad = false);
  static Tensor full(std::vector<int> shape, float fill,
                     bool requires_grad = false);
  /// Gaussian init scaled by `scale` (e.g. 0.02 for transformer weights).
  static Tensor randn(std::vector<int> shape, Rng& rng, float scale,
                      bool requires_grad = false);
  static Tensor from(std::vector<float> data, std::vector<int> shape,
                     bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const std::vector<int>& shape() const { return node_->shape; }
  std::int64_t numel() const { return node_->numel(); }
  int dim(int i) const { return node_->shape[static_cast<std::size_t>(i)]; }

  float* data() { return node_->value.data(); }
  const float* data() const { return node_->value.data(); }
  float* grad() {
    node_->ensure_grad();
    return node_->grad.data();
  }
  bool requires_grad() const { return node_->requires_grad; }
  void zero_grad() {
    if (!node_->grad.empty()) node_->grad.assign(node_->grad.size(), 0.0f);
  }

  /// Scalar value of a one-element tensor.
  float item() const {
    assert(numel() == 1);
    return node_->value[0];
  }

  /// Runs reverse-mode autodiff from this scalar.
  void backward();

  std::shared_ptr<Node> node() const { return node_; }
  explicit Tensor(std::shared_ptr<Node> node) : node_(std::move(node)) {}

 private:
  std::shared_ptr<Node> node_;
};

/// Creates a non-leaf result node; `parents` drive the topo sort.
Tensor make_result(std::vector<float> value, std::vector<int> shape,
                   std::vector<Tensor> parents,
                   std::function<void(Node&)> make_backward);

// ----------------------------------------------------------------- ops

/// Matrix product with optional transposes: op(a) [m,k] x op(b) [k,n].
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// Elementwise sum; `b` may also be a row vector [n] broadcast over [m,n].
Tensor add(const Tensor& a, const Tensor& b);

/// Elementwise product (shapes must match).
Tensor mul(const Tensor& a, const Tensor& b);

/// Scalar multiple.
Tensor scale(const Tensor& a, float s);

/// tanh-approximation GeLU.
Tensor gelu(const Tensor& a);

/// Row-wise layer normalization of [m,n] with learnable gamma/beta [n].
Tensor layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

/// Rows of `table` [V,H] selected by token ids; backward scatter-adds.
Tensor embedding(const std::vector<int>& ids, const Tensor& table);

/// Fused multi-head causal self-attention. q,k,v: [T, H]; H % heads == 0.
/// window <= 0 means full causal attention; otherwise position t attends
/// positions [t-window+1, t] (sliding window attention, §3.1).
Tensor attention(const Tensor& q, const Tensor& k, const Tensor& v, int heads,
                 int window = 0);

/// Mean token-level cross entropy of logits [T,V] against targets [T].
Tensor cross_entropy(const Tensor& logits, const std::vector<int>& targets);

/// Sum of all elements (scalar).
Tensor sum(const Tensor& a);

/// Elementwise sum of k same-shaped tensors (the "all-reduce" of a
/// row-parallel layer's partial outputs).
Tensor add_n(const std::vector<Tensor>& parts);

}  // namespace ms::optim
