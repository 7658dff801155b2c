// Per-GPU memory accounting (§2's motivation for 1F1B and sequence
// parallelism; Table 2's "batch size constrained by GPU memory").
//
// Four components occupy HBM during training:
//   * bf16 weights of the GPU's pipeline/TP shard (replicated across DP);
//   * gradient buffer (bf16; ZeRO >= 2 shards it across DP);
//   * optimizer states (fp32 master + two Adam moments; ZeRO >= 1 shards);
//   * activations: per-layer, per-microbatch working set times the number
//     of microbatches simultaneously in flight under the pipeline schedule.
//
// Activation bytes per token per layer follow the standard accounting for
// a transformer with selective recomputation (Korthikanti et al.'22):
// roughly 34*h bytes at bf16, divided by TP with sequence parallelism.
#pragma once

#include "core/units.h"
#include "model/transformer.h"
#include "parallel/mapping.h"

namespace ms::model {

struct MemoryBreakdown {
  double weights = 0;
  double gradients = 0;
  double optimizer = 0;
  double activations = 0;
  double total() const {
    return weights + gradients + optimizer + activations;
  }
};

struct MemoryConfig {
  /// Activation bytes per token per layer before TP division (~34*h with
  /// selective recomputation; set higher for full activation stashing).
  double activation_bytes_per_token_per_layer(int hidden) const {
    return activation_factor * hidden;
  }
  double activation_factor = 34.0;
  double gpu_hbm_bytes = 80e9;  // A100-80GB

  /// Standard presets for the activation factor:
  /// full stashing ~ 34*h/layer/token (everything kept),
  /// full recomputation ~ 2*h (only the layer-boundary activation kept).
  static constexpr double kSelectiveRecompute = 34.0;
  static constexpr double kFullRecompute = 2.0;
};

/// Peak memory of one GPU given the parallel layout and the schedule's peak
/// in-flight microbatch count (see parallel::peak_inflight_microbatches).
MemoryBreakdown peak_memory(const ModelConfig& model,
                            const parallel::ParallelConfig& par,
                            int inflight_microbatches,
                            const MemoryConfig& mem = {});

}  // namespace ms::model
