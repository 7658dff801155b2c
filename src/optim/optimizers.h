// Optimizers: SGD, Adam/AdamW and LAMB (You et al., ICLR'20).
//
// LAMB is the §3.1 large-batch enabler: it rescales each parameter block's
// Adam update by the "trust ratio" ||w|| / ||update||, which keeps the
// effective per-layer step size stable as the batch (and thus the learning
// rate) grows — the mechanism behind "LAMB can scale the batch size to 4x
// without accuracy loss".
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "optim/nn.h"

namespace ms::optim {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Param> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  virtual void step(float lr) = 0;
  void zero_grad();

  const std::vector<Param>& params() const { return params_; }

 protected:
  std::vector<Param> params_;
};

class Sgd : public Optimizer {
 public:
  explicit Sgd(std::vector<Param> params, float momentum = 0.0f);
  void step(float lr) override;

 private:
  float momentum_;
  std::vector<std::vector<float>> velocity_;
};

struct AdamHyper {
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;  ///< decoupled (AdamW-style) when non-zero
};

class Adam : public Optimizer {
 public:
  explicit Adam(std::vector<Param> params, AdamHyper hyper = {});
  void step(float lr) override;

 protected:
  /// Computes the Adam direction (m_hat / (sqrt(v_hat) + eps) + wd * w)
  /// into `direction`; shared with LAMB.
  void adam_direction(std::size_t i, std::vector<float>& direction);

  AdamHyper hyper_;
  std::int64_t t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

class Lamb : public Adam {
 public:
  explicit Lamb(std::vector<Param> params, AdamHyper hyper = {});
  void step(float lr) override;

  /// Trust ratio applied to each parameter block on the last step (for
  /// tests and diagnostics).
  const std::vector<float>& last_trust_ratios() const { return trust_; }

 private:
  std::vector<float> trust_;
};

}  // namespace ms::optim
