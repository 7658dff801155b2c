#include "data/pipeline.h"

#include <cassert>

namespace ms::data {

DataStepCost data_step_cost(const DataPipelineConfig& cfg) {
  assert(cfg.gpus_per_node >= 1 && cfg.samples_per_step >= 1);
  DataStepCost cost;

  const double step_bytes =
      static_cast<double>(cfg.sample_bytes) * cfg.samples_per_step;

  if (cfg.redundant_loaders) {
    // Every GPU worker reads the full step's data itself: the shared disk
    // serves gpus_per_node copies, plus per-worker read overheads.
    const double total_bytes = step_bytes * cfg.gpus_per_node;
    cost.disk_read = seconds(total_bytes / cfg.disk_read_bw) +
                     cfg.gpus_per_node * cfg.per_read_overhead;
    cost.shm_copy = 0;  // data lands directly in each worker's memory
  } else {
    // Tree-based loading: one dedicated loader reads once into shared
    // memory; workers copy their (identical) batch out concurrently.
    cost.disk_read =
        seconds(step_bytes / cfg.disk_read_bw) + cfg.per_read_overhead;
    cost.shm_copy = seconds(step_bytes / cfg.shm_copy_bw);
  }

  // Preprocessing parallelized over CPU workers.
  const double batches = static_cast<double>(cfg.samples_per_step) /
                         static_cast<double>(cfg.cpu_workers);
  cost.preprocess = static_cast<TimeNs>(
      static_cast<double>(cfg.preprocess_per_sample) * (batches < 1 ? 1 : batches));

  cost.exposed = cost.disk_read + cost.shm_copy +
                 (cfg.async_preprocessing ? 0 : cost.preprocess);
  return cost;
}

}  // namespace ms::data
