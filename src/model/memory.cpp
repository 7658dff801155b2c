#include "model/memory.h"

#include <cassert>

namespace ms::model {

MemoryBreakdown peak_memory(const ModelConfig& model,
                            const parallel::ParallelConfig& par,
                            int inflight_microbatches,
                            const MemoryConfig& mem) {
  assert(inflight_microbatches >= 0);
  MemoryBreakdown out;

  const double params_per_gpu =
      params_count(model) / (static_cast<double>(par.tp) * par.pp);
  // ZeRO-3 shards the bf16 weights themselves across DP (gathered
  // transiently per layer); stages 0-2 keep a full replica.
  out.weights = params_per_gpu * 2.0 / (par.zero_stage >= 3 ? par.dp : 1);

  // Gradients: bf16 buffer; ZeRO-2+ shards it across DP.
  out.gradients =
      params_per_gpu * 2.0 / (par.zero_stage >= 2 ? par.dp : 1);

  // Optimizer: fp32 master + 2 moments = 12 bytes/param; ZeRO-1+ shards.
  out.optimizer =
      params_per_gpu * 12.0 / (par.zero_stage >= 1 ? par.dp : 1);

  // Activations: layers on this GPU x in-flight microbatches x per-layer
  // working set (sequence dimension divided by TP under SP; hidden divided
  // by TP otherwise — both appear as one /tp factor here).
  const double layers_per_gpu =
      static_cast<double>(model.layers) / par.pp;
  const double tokens_per_microbatch = model.seq_len;  // microbatch = 1 seq
  out.activations =
      layers_per_gpu * inflight_microbatches * tokens_per_microbatch *
      mem.activation_bytes_per_token_per_layer(model.hidden) / par.tp;
  return out;
}

}  // namespace ms::model
