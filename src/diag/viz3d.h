// 3D-parallel training visualization and hang localization (MegaScale §5.2).
//
// The cluster splits logically into tensor/pipeline/data dimensions; when a
// defective GPU blocks an NCCL operation, every dependent rank times out
// and logs its ongoing operation on exit, while the faulty rank hangs
// silently. Overlaying "who logged what" on the logical topology pinpoints
// the culprit: the suspects are exactly the ranks that (a) logged nothing
// and (b) appear in a communication group some victim was waiting on.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "parallel/mapping.h"

namespace ms::diag {

class Parallel3DVisualizer {
 public:
  explicit Parallel3DVisualizer(const parallel::ParallelConfig& cfg)
      : cfg_(cfg) {}

  /// Human-readable position + data-flow description of one rank
  /// (Figure 7's selection panel).
  std::string describe(int rank) const;

  /// Hang localization. `last_logged_op` holds, for every rank that exited
  /// on communication timeout, the operation it was blocked in (e.g.
  /// "dp-allgather", "pp-recv"). Hung ranks log nothing. Returns the
  /// suspect ranks: silent ranks sharing a communication group with at
  /// least one complaining rank (or all silent ranks if no complaints).
  std::vector<int> locate_hung_ranks(
      const std::map<int, std::string>& last_logged_op) const;

 private:
  parallel::ParallelConfig cfg_;
};

}  // namespace ms::diag
