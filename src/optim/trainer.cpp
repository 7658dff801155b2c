#include "optim/trainer.h"

#include <cassert>
#include <cmath>

namespace ms::optim {

MarkovCorpus::MarkovCorpus(int vocab, int branching, std::uint64_t seed)
    : vocab_(vocab), branching_(branching) {
  assert(vocab >= 2 && branching >= 1 && branching <= vocab);
  Rng rng(seed);
  successors_.resize(static_cast<std::size_t>(vocab));
  probs_.resize(static_cast<std::size_t>(vocab));
  for (int v = 0; v < vocab; ++v) {
    auto idx = rng.sample_without_replacement(
        static_cast<std::size_t>(vocab), static_cast<std::size_t>(branching));
    double total = 0.0;
    std::vector<double> weights;
    for (std::size_t i = 0; i < idx.size(); ++i) {
      // Skewed weights so the chain has usable structure.
      const double w = 1.0 / static_cast<double>(i + 1);
      weights.push_back(w);
      total += w;
    }
    for (auto& w : weights) w /= total;
    for (auto i : idx) successors_[static_cast<std::size_t>(v)].push_back(static_cast<int>(i));
    probs_[static_cast<std::size_t>(v)] = std::move(weights);
  }
}

std::vector<int> MarkovCorpus::sample_sequence(int length, Rng& rng) const {
  assert(length >= 1);
  std::vector<int> seq(static_cast<std::size_t>(length));
  seq[0] = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(vocab_)));
  for (int t = 1; t < length; ++t) {
    const auto& succ = successors_[static_cast<std::size_t>(seq[static_cast<std::size_t>(t - 1)])];
    const auto& p = probs_[static_cast<std::size_t>(seq[static_cast<std::size_t>(t - 1)])];
    double u = rng.uniform();
    int chosen = succ.back();
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (u < p[i]) {
        chosen = succ[i];
        break;
      }
      u -= p[i];
    }
    seq[static_cast<std::size_t>(t)] = chosen;
  }
  return seq;
}

double MarkovCorpus::entropy_per_token() const {
  // Stationary distribution approximated as uniform (transition targets are
  // uniformly sampled), so H = mean over states of the row entropy.
  double h = 0.0;
  for (const auto& row : probs_) {
    for (double p : row) {
      if (p > 0) h -= p * std::log(p);
    }
  }
  return h / static_cast<double>(probs_.size());
}

TrainRecord train_lm(TinyGpt& model, Optimizer& optimizer,
                     const MarkovCorpus& corpus, const TrainConfig& cfg,
                     Rng& rng) {
  TrainRecord record;
  record.loss_vs_tokens.name = "loss";
  const int seq = model.config().seq_len;
  double tokens = 0.0;

  for (int step = 0; step < cfg.steps; ++step) {
    optimizer.zero_grad();
    double batch_loss = 0.0;
    for (int b = 0; b < cfg.batch_size; ++b) {
      auto tokens_seq = corpus.sample_sequence(seq + 1, rng);
      Tensor loss = scale(model.loss(tokens_seq),
                          1.0f / static_cast<float>(cfg.batch_size));
      loss.backward();
      batch_loss += static_cast<double>(loss.item()) * cfg.batch_size;
      tokens += seq;
    }
    batch_loss /= cfg.batch_size;
    optimizer.step(cfg.lr);
    if (step % cfg.record_every == 0 || step == cfg.steps - 1) {
      record.loss_vs_tokens.add(tokens, batch_loss);
    }
    record.final_loss = batch_loss;
  }
  record.tokens_consumed = tokens;
  return record;
}

std::vector<int> CopyCorpus::sample_sequence(Rng& rng) const {
  std::vector<int> seq(static_cast<std::size_t>(2 * half_len_));
  for (int i = 0; i < half_len_; ++i) {
    seq[static_cast<std::size_t>(i)] =
        static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(vocab_)));
    seq[static_cast<std::size_t>(half_len_ + i)] = seq[static_cast<std::size_t>(i)];
  }
  return seq;
}

double CopyCorpus::copy_loss(const TinyGpt& model, int sequences,
                             Rng& rng) const {
  assert(sequences >= 1);
  double total = 0.0;
  int counted = 0;
  for (int s = 0; s < sequences; ++s) {
    const auto seq = sample_sequence(rng);
    std::vector<int> inputs(seq.begin(), seq.end() - 1);
    Tensor logits = model.forward(inputs);
    const int vocab = model.config().vocab;
    // Positions half_len-1 .. 2*half_len-2 of the input predict the copy.
    for (int t = half_len_; t < 2 * half_len_ - 1; ++t) {
      const float* row =
          logits.data() + static_cast<std::size_t>(t) * vocab;
      float maxv = row[0];
      for (int v = 1; v < vocab; ++v) maxv = std::max(maxv, row[v]);
      double denom = 0.0;
      for (int v = 0; v < vocab; ++v) {
        denom += std::exp(static_cast<double>(row[v] - maxv));
      }
      const int target = seq[static_cast<std::size_t>(t + 1)];
      const double logp =
          static_cast<double>(row[target] - maxv) - std::log(denom);
      total -= logp;
      ++counted;
    }
  }
  return total / counted;
}

double train_copy_task(TinyGpt& model, Optimizer& optimizer,
                       const CopyCorpus& corpus, int steps, int batch_size,
                       float lr, Rng& rng) {
  double last = 0.0;
  for (int step = 0; step < steps; ++step) {
    optimizer.zero_grad();
    double batch_loss = 0.0;
    for (int b = 0; b < batch_size; ++b) {
      Tensor loss = scale(model.loss(corpus.sample_sequence(rng)),
                          1.0f / static_cast<float>(batch_size));
      loss.backward();
      batch_loss += static_cast<double>(loss.item()) * batch_size;
    }
    optimizer.step(lr);
    last = batch_loss / batch_size;
  }
  return last;
}

double evaluate_lm(const TinyGpt& model, const MarkovCorpus& corpus,
                   int sequences, Rng& rng) {
  assert(sequences >= 1);
  double total = 0.0;
  const int seq = model.config().seq_len;
  for (int i = 0; i < sequences; ++i) {
    total += model.loss(corpus.sample_sequence(seq + 1, rng)).item();
  }
  return total / sequences;
}

ScalingLawLoss::ScalingLawLoss(double floor, double amplitude, double exponent,
                               double offset_tokens, std::uint64_t seed)
    : floor_(floor),
      amplitude_(amplitude),
      exponent_(exponent),
      offset_(offset_tokens),
      rng_(seed) {}

double ScalingLawLoss::loss_at(double tokens) {
  const double mean =
      floor_ + amplitude_ * std::pow(tokens + offset_, -exponent_);
  return mean * (1.0 + 0.004 * rng_.normal());
}

}  // namespace ms::optim
