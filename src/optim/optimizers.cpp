#include "optim/optimizers.h"

#include <algorithm>
#include <cmath>

namespace ms::optim {

void Optimizer::zero_grad() {
  for (auto& p : params_) p.tensor.zero_grad();
}

Sgd::Sgd(std::vector<Param> params, float momentum)
    : Optimizer(std::move(params)), momentum_(momentum) {
  velocity_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    velocity_[i].assign(static_cast<std::size_t>(params_[i].tensor.numel()),
                        0.0f);
  }
}

void Sgd::step(float lr) {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i].tensor;
    float* w = p.data();
    const float* g = p.grad();
    float* vel = velocity_[i].data();
    const std::int64_t n = p.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      vel[j] = momentum_ * vel[j] + g[j];
      w[j] -= lr * vel[j];
    }
  }
}

Adam::Adam(std::vector<Param> params, AdamHyper hyper)
    : Optimizer(std::move(params)), hyper_(hyper) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const auto n = static_cast<std::size_t>(params_[i].tensor.numel());
    m_[i].assign(n, 0.0f);
    v_[i].assign(n, 0.0f);
  }
}

void Adam::adam_direction(std::size_t i, std::vector<float>& direction) {
  auto& p = params_[i].tensor;
  const float* g = p.grad();
  const float* w = p.data();
  const std::int64_t n = p.numel();
  direction.resize(static_cast<std::size_t>(n));

  const float bc1 = 1.0f - std::pow(hyper_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(hyper_.beta2, static_cast<float>(t_));
  float* m = m_[i].data();
  float* v = v_[i].data();
  for (std::int64_t j = 0; j < n; ++j) {
    m[j] = hyper_.beta1 * m[j] + (1.0f - hyper_.beta1) * g[j];
    v[j] = hyper_.beta2 * v[j] + (1.0f - hyper_.beta2) * g[j] * g[j];
    const float m_hat = m[j] / bc1;
    const float v_hat = v[j] / bc2;
    direction[static_cast<std::size_t>(j)] =
        m_hat / (std::sqrt(v_hat) + hyper_.eps) + hyper_.weight_decay * w[j];
  }
}

void Adam::step(float lr) {
  ++t_;
  std::vector<float> direction;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    adam_direction(i, direction);
    float* w = params_[i].tensor.data();
    for (std::size_t j = 0; j < direction.size(); ++j) {
      w[j] -= lr * direction[j];
    }
  }
}

Lamb::Lamb(std::vector<Param> params, AdamHyper hyper)
    : Adam(std::move(params), hyper) {}

void Lamb::step(float lr) {
  ++t_;
  trust_.assign(params_.size(), 1.0f);
  std::vector<float> direction;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    adam_direction(i, direction);
    float* w = params_[i].tensor.data();
    double w_norm = 0.0, d_norm = 0.0;
    for (std::size_t j = 0; j < direction.size(); ++j) {
      w_norm += static_cast<double>(w[j]) * w[j];
      d_norm += static_cast<double>(direction[j]) * direction[j];
    }
    w_norm = std::sqrt(w_norm);
    d_norm = std::sqrt(d_norm);
    // Trust ratio phi(||w||) / ||update||, with the standard guard that
    // zero norms fall back to ratio 1.
    float trust = 1.0f;
    if (w_norm > 0.0 && d_norm > 0.0) {
      trust = static_cast<float>(w_norm / d_norm);
    }
    trust_[i] = trust;
    for (std::size_t j = 0; j < direction.size(); ++j) {
      w[j] -= lr * trust * direction[j];
    }
  }
}

}  // namespace ms::optim
