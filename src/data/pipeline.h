// Data-pipeline cost model (MegaScale §3.4).
//
// Two production optimizations are modeled:
//  * Redundant-dataloader elimination: stock training gives every GPU
//    worker its own dataloader, so 8 workers per machine compete for disk
//    bandwidth reading IDENTICAL bytes (workers in one machine form a TP
//    group and consume the same input). MegaScale reads once per machine
//    into shared memory and lets workers memcpy their slice.
//  * Asynchronous preprocessing: preprocessing for step k+1 runs while the
//    GPUs synchronize gradients of step k, so it leaves the critical path.
#pragma once

#include "core/time.h"
#include "core/units.h"

namespace ms::data {

struct DataPipelineConfig {
  int gpus_per_node = 8;
  /// Token-id payload of one sample (sequence) on disk: 2048 tokens x 4 B.
  Bytes sample_bytes = 2048 * 4;
  /// Samples a machine must supply per step (its GPUs' microbatches).
  int samples_per_step = 64;
  Bandwidth disk_read_bw = gBps(2.0);  ///< shared per machine
  TimeNs per_read_overhead = microseconds(50.0);
  Bandwidth shm_copy_bw = gBps(20.0);
  /// CPU tokenization/augmentation per sample.
  TimeNs preprocess_per_sample = microseconds(400.0);
  int cpu_workers = 16;

  bool redundant_loaders = true;     ///< stock: one loader per GPU
  bool async_preprocessing = false;  ///< MegaScale: overlap with grad sync
};

struct DataStepCost {
  TimeNs disk_read = 0;    ///< wall time to get bytes off the disk
  TimeNs shm_copy = 0;     ///< worker copy out of shared memory
  TimeNs preprocess = 0;   ///< CPU preprocessing wall time
  /// GPU idle time charged to the step head: reads + copies + (preprocess
  /// unless asynchronous).
  TimeNs exposed = 0;
};

DataStepCost data_step_cost(const DataPipelineConfig& cfg);

}  // namespace ms::data
