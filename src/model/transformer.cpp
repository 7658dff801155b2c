#include "model/transformer.h"

#include <cassert>

namespace ms::model {

ModelConfig config_175b() {
  ModelConfig cfg;
  cfg.name = "175B";
  cfg.layers = 96;
  cfg.hidden = 12288;
  cfg.heads = 128;
  cfg.ffn_hidden = 4 * 12288;
  cfg.vocab = 64000;
  cfg.seq_len = 2048;
  return cfg;
}

ModelConfig config_530b() {
  ModelConfig cfg;
  cfg.name = "530B";
  cfg.layers = 105;
  cfg.hidden = 20480;
  cfg.heads = 160;
  cfg.ffn_hidden = 4 * 20480;
  cfg.vocab = 64000;
  cfg.seq_len = 2048;
  return cfg;
}

ModelConfig config_13b() {
  ModelConfig cfg;
  cfg.name = "13B";
  cfg.layers = 40;
  cfg.hidden = 5120;
  cfg.heads = 40;
  cfg.ffn_hidden = 4 * 5120;
  cfg.vocab = 64000;
  cfg.seq_len = 2048;
  return cfg;
}

bool config_by_name(const std::string& name, ModelConfig& out) {
  std::string key;
  key.reserve(name.size());
  for (char c : name) {
    key += (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
  if (key == "175b") {
    out = config_175b();
  } else if (key == "530b") {
    out = config_530b();
  } else if (key == "13b") {
    out = config_13b();
  } else {
    return false;
  }
  return true;
}

double params_count(const ModelConfig& cfg) {
  const double h = cfg.hidden;
  const double f = cfg.ffn_hidden;
  // Per layer: QKV (3h^2) + output proj (h^2) + MLP (2*h*f) + LN/bias terms.
  const double per_layer = 4.0 * h * h + 2.0 * h * f + 9.0 * h;
  const double embeddings = static_cast<double>(cfg.vocab) * h;
  const double final_ln = 2.0 * h;
  return cfg.layers * per_layer + embeddings + final_ln;
}

FlopsPerToken forward_flops_per_token(const ModelConfig& cfg) {
  const double h = cfg.hidden;
  const double f = cfg.ffn_hidden;
  FlopsPerToken flops;
  // GEMMs: 2 FLOPs per MAC. QKV: 3h^2, proj: h^2, MLP: 2hf.
  flops.dense = cfg.layers * 2.0 * (4.0 * h * h + 2.0 * h * f);
  // Attention: QK^T (h MACs per attended position) + AV (same).
  flops.attention = cfg.layers * 2.0 * 2.0 * h * cfg.attention_span();
  flops.logits = 2.0 * h * cfg.vocab;
  return flops;
}

Flops train_flops_per_token(const ModelConfig& cfg) {
  // Backward is 2x forward (grad w.r.t. inputs + grad w.r.t. weights).
  return 3.0 * forward_flops_per_token(cfg).total();
}

Flops reference_train_flops_per_token(const ModelConfig& cfg) {
  ModelConfig reference = cfg;
  reference.attention = AttentionKind::kFull;
  return train_flops_per_token(reference);
}

double mfu(const ModelConfig& cfg, double tokens_per_second, int gpus,
           Flops peak_flops_per_gpu) {
  assert(gpus > 0 && peak_flops_per_gpu > 0);
  const double credited =
      reference_train_flops_per_token(cfg) * tokens_per_second;
  return credited / (static_cast<double>(gpus) * peak_flops_per_gpu);
}

}  // namespace ms::model
