// Training harness for the convergence microbenchmarks (§6.2, Figure 10)
// and the scaling-law loss process behind the production run (Figure 11).
#pragma once

#include <memory>

#include "core/rng.h"
#include "core/stats.h"
#include "core/units.h"
#include "optim/nn.h"
#include "optim/optimizers.h"

namespace ms::optim {

/// Synthetic language: an order-1 Markov chain over the vocabulary where
/// every token has `branching` likely successors. A transformer LM can
/// drive its loss down to the chain's conditional entropy; the gap to that
/// floor measures convergence quality, which is what Figure 10 compares
/// across architecture/optimizer variants.
class MarkovCorpus {
 public:
  MarkovCorpus(int vocab, int branching, std::uint64_t seed);

  int vocab() const { return vocab_; }

  /// Samples a fresh sequence (first token uniform).
  std::vector<int> sample_sequence(int length, Rng& rng) const;

  /// Conditional entropy H(x_t | x_{t-1}) in nats — the achievable loss
  /// floor for a perfect model.
  double entropy_per_token() const;

 private:
  int vocab_;
  int branching_;
  // successors_[v] = candidate next tokens; probs_ = their probabilities.
  std::vector<std::vector<int>> successors_;
  std::vector<std::vector<double>> probs_;
};

struct TrainConfig {
  int steps = 200;
  int batch_size = 8;
  float lr = 1e-3f;
  /// Record a loss point every `record_every` steps.
  int record_every = 5;
};

struct TrainRecord {
  /// x = tokens consumed, y = batch training loss (nats/token).
  Series loss_vs_tokens;
  double final_loss = 0;
  double tokens_consumed = 0;
};

/// Trains the model in place. Gradients accumulate over `batch_size`
/// sequences per step (each scaled by 1/batch), then the optimizer steps.
TrainRecord train_lm(TinyGpt& model, Optimizer& optimizer,
                     const MarkovCorpus& corpus, const TrainConfig& cfg,
                     Rng& rng);

/// Held-out evaluation: mean next-token loss over freshly sampled
/// sequences (no gradient updates).
double evaluate_lm(const TinyGpt& model, const MarkovCorpus& corpus,
                   int sequences, Rng& rng);

/// Copy task: each sequence is a random prefix followed by its exact
/// repetition. Predicting the second half requires attending `half_len`
/// positions back — unlike the order-1 Markov corpus, this stresses the
/// attention mechanism's receptive field, which is how we test §3.1's
/// claim that STACKED sliding-window layers retain long-range information
/// (reach ~ layers x window) while a too-small window genuinely fails.
class CopyCorpus {
 public:
  CopyCorpus(int vocab, int half_len) : vocab_(vocab), half_len_(half_len) {}

  int vocab() const { return vocab_; }
  int sequence_length() const { return 2 * half_len_; }

  /// [x_1..x_h, x_1..x_h] with x uniform.
  std::vector<int> sample_sequence(Rng& rng) const;

  /// Mean loss over the SECOND half only (the copy positions) — the metric
  /// that separates models that can reach back from models that cannot.
  double copy_loss(const TinyGpt& model, int sequences, Rng& rng) const;

 private:
  int vocab_;
  int half_len_;
};

/// Trains on the copy task (gradient accumulation as in train_lm).
double train_copy_task(TinyGpt& model, Optimizer& optimizer,
                       const CopyCorpus& corpus, int steps, int batch_size,
                       float lr, Rng& rng);

// ------------------------------------------------------- scaling-law loss

/// Chinchilla-style loss process for multi-week production runs (Fig. 11):
/// L(tokens) = floor + amplitude * (tokens + offset)^(-exponent), plus
/// bounded observation noise. Deterministic per seed.
class ScalingLawLoss {
 public:
  ScalingLawLoss(double floor = 1.7, double amplitude = 12.0,
                 double exponent = 0.12, double offset_tokens = giga(1.0),
                 std::uint64_t seed = 1);

  double loss_at(double tokens);

 private:
  double floor_, amplitude_, exponent_, offset_;
  Rng rng_;
};

}  // namespace ms::optim
