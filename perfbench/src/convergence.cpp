// convergence: one Adam step (batch 6) per task on the Figure-10 TinyGpt
// over the seeded Markov corpus; the run's held-out loss after its fixed
// step budget is loss_at_budget.
//
// Why: it is the only workload where the optim autograd kernels do the
// work. The loss is bit-identical across runs of a seed, so a kernel change
// that alters reduction order shows up as a changed loss, not as noise.
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "core/rng.h"
#include "harness.h"
#include "optim/autograd.h"
#include "optim/trainer.h"

namespace perfbench {
namespace {

constexpr int kBatch = 6;
constexpr float kLr = 2e-3f;
constexpr int kHeldOutSequences = 24;

ms::optim::TinyGptConfig model_config() {
  ms::optim::TinyGptConfig cfg;  // Figure 10's model
  cfg.vocab = 64;
  cfg.seq_len = 48;
  cfg.hidden = 64;
  cfg.heads = 4;
  cfg.layers = 2;
  cfg.ffn_hidden = 128;
  return cfg;
}

struct Trainee {
  explicit Trainee(std::uint64_t init_seed)
      : init(init_seed), model(model_config(), init), adam(model.parameters()) {}
  ms::Rng init;
  ms::optim::TinyGpt model;
  ms::optim::Adam adam;
};

class Convergence : public Workload {
 public:
  Convergence(std::uint64_t seed, int tasks)
      : seed_(seed),
        corpus_(64, 4, ms::derive_seed(seed, "perfbench.convergence.corpus")) {
    for (int i = 0; i < tasks; ++i) {
      batch_seeds_.push_back(ms::derive_seed(
          seed, "perfbench.convergence.batch", static_cast<std::uint64_t>(i)));
    }
  }

  std::vector<std::string> task_list() const override {
    std::vector<std::string> out;
    char buf[64];
    for (const std::uint64_t s : batch_seeds_) {
      std::snprintf(buf, sizeof(buf), "adam-step batch_seed=0x%016llx",
                    static_cast<unsigned long long>(s));
      out.emplace_back(buf);
    }
    return out;
  }

  void setup(Spans* spans) override {
    (void)spans;
    trainee_ = fresh();
    // Warm-up on a scratch model, so the timed run starts from the init.
    auto scratch = fresh();
    step(*scratch, batch_seeds_.front(), nullptr);
  }

  void run(int i, Spans* spans) override {
    loss_ = step(*trainee_, batch_seeds_[static_cast<std::size_t>(i)], spans);
  }

  bool check(int i, std::uint64_t& digest) override {
    (void)i;
    digest = std::bit_cast<std::uint64_t>(loss_);
    return std::isfinite(loss_);
  }

  std::uint64_t rerun_first() override {
    auto again = fresh();
    return std::bit_cast<std::uint64_t>(
        step(*again, batch_seeds_.front(), nullptr));
  }

  std::map<std::string, double> finish(Spans* spans) override {
    double held_out = 0;
    {
      Span span(spans, "optim.evaluate_lm");
      ms::Rng rng(ms::derive_seed(seed_, "perfbench.convergence.heldout"));
      held_out = ms::optim::evaluate_lm(trainee_->model, corpus_,
                                        kHeldOutSequences, rng);
    }
    if (spans != nullptr) manual_step(spans);
    return {{"loss_at_budget", held_out}};
  }

 private:
  std::unique_ptr<Trainee> fresh() const {
    return std::make_unique<Trainee>(
        ms::derive_seed(seed_, "perfbench.convergence.init"));
  }

  double step(Trainee& t, std::uint64_t batch_seed, Spans* spans) {
    ms::optim::TrainConfig tc;
    tc.steps = 1;
    tc.batch_size = kBatch;
    tc.lr = kLr;
    tc.record_every = 1;
    ms::Rng data(batch_seed);
    ms::optim::TrainRecord rec;
    {
      Span span(spans, "optim.train_lm");
      rec = ms::optim::train_lm(t.model, t.adam, corpus_, tc, data);
    }
    if (spans != nullptr) spans->add_count("optim.tokens", rec.tokens_consumed);
    return rec.final_loss;
  }

  /// Traced run only, after the held-out loss is taken: one more step
  /// driven through the public pieces train_lm composes, to split a step's
  /// time into forward, backward and optimizer.
  void manual_step(Spans* spans) {
    auto& t = *trainee_;
    ms::Rng data(ms::derive_seed(seed_, "perfbench.convergence.split"));
    t.adam.zero_grad();
    for (int b = 0; b < kBatch; ++b) {
      const auto seq = corpus_.sample_sequence(t.model.config().seq_len + 1, data);
      ms::optim::Tensor loss;
      {
        Span span(spans, "optim.forward");
        loss = ms::optim::scale(t.model.loss(seq), 1.0f / kBatch);
      }
      Span span(spans, "optim.backward");
      loss.backward();
    }
    Span span(spans, "optim.optimizer_step");
    t.adam.step(kLr);
  }

  std::uint64_t seed_;
  ms::optim::MarkovCorpus corpus_;
  std::vector<std::uint64_t> batch_seeds_;
  std::unique_ptr<Trainee> trainee_;
  double loss_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_convergence(std::uint64_t seed, int tasks) {
  return std::make_unique<Convergence>(seed, tasks);
}

}  // namespace perfbench
