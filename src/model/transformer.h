// Transformer architecture description and FLOPs/parameter accounting
// (MegaScale §3.1, Table 1).
//
// The model module is purely arithmetic: given an architecture it answers
// "how many parameters", "how many FLOPs per token", "how many bytes of
// activations cross a tensor-parallel boundary". The execution engine
// combines these with the operator catalog (ops.h) and the collective cost
// model to produce iteration times.
#pragma once

#include <string>

#include "core/units.h"

namespace ms::model {

enum class AttentionKind {
  kFull,           // dense causal attention, O(s^2)
  kSlidingWindow,  // Longformer-style fixed window, O(s*w)  (§3.1 SWA)
};

struct ModelConfig {
  std::string name = "gpt";
  int layers = 96;
  int hidden = 12288;
  int heads = 128;
  int ffn_hidden = 4 * 12288;
  int vocab = 64000;
  int seq_len = 2048;
  /// Parallel transformer block (§3.1, PTB): y = x + MLP(LN(x)) + Attn(LN(x)).
  bool parallel_block = false;
  AttentionKind attention = AttentionKind::kFull;
  int window = 1024;  // sliding-window size when attention == kSlidingWindow

  /// Effective attention span per token, averaged over positions under the
  /// causal mask. Full attention: position t attends t tokens -> mean s/2.
  /// Sliding window w: position t attends min(w, t) tokens ->
  /// mean w - w^2/(2s) for w <= s.
  double attention_span() const {
    const double s = static_cast<double>(seq_len);
    if (attention == AttentionKind::kSlidingWindow && window < seq_len) {
      const double w = static_cast<double>(window);
      return w - w * w / (2.0 * s);
    }
    return s / 2.0;
  }
};

/// Table 1 presets. Parallelism defaults (TP=8, PP) live with the presets
/// that use them (parallel module); these are pure architecture.
ModelConfig config_175b();
ModelConfig config_530b();
/// The 13B model used for the convergence microbenchmarks (§6.2).
ModelConfig config_13b();

/// Preset lookup for CLIs ("175b", "530b", "13b"; case-insensitive).
/// Returns false and leaves `out` untouched for unknown names.
bool config_by_name(const std::string& name, ModelConfig& out);

/// Total trainable parameters.
double params_count(const ModelConfig& cfg);

/// Forward-pass FLOPs for one token, decomposed.
struct FlopsPerToken {
  Flops dense = 0;      // QKV + output projection + MLP GEMMs
  Flops attention = 0;  // QK^T and attention-weighted sum
  Flops logits = 0;     // final vocabulary projection
  Flops total() const { return dense + attention + logits; }
};
FlopsPerToken forward_flops_per_token(const ModelConfig& cfg);

/// Training FLOPs per token = forward + backward (2x forward).
Flops train_flops_per_token(const ModelConfig& cfg);

/// Reference FLOPs used for MFU accounting. Following the paper's Table 3
/// (MFU *increases* when sliding-window attention is enabled), MFU is
/// computed against the full-attention reference model: SWA reduces
/// execution time but not the FLOPs credited to the job.
Flops reference_train_flops_per_token(const ModelConfig& cfg);

/// Model-FLOPs utilization: credited FLOPs per second per GPU over peak.
double mfu(const ModelConfig& cfg, double tokens_per_second, int gpus,
           Flops peak_flops_per_gpu);

}  // namespace ms::model
