// 3D-parallel rank topology (MegaScale §2).
//
// A world of tp*dp*pp ranks is factored into tensor (TP), data (DP) and
// pipeline (PP) dimensions. Following the paper, TP is the fastest-varying
// dimension (a TP group is exactly one 8-GPU node, keeping its heavy
// traffic on NVLink), DP comes next (the paper prioritizes building DP
// groups over PP so DP peers land close in the fabric), PP is outermost.
#pragma once

#include <cassert>
#include <vector>

#include "core/units.h"

namespace ms::parallel {

struct ParallelConfig {
  int tp = 8;   ///< tensor-parallel degree (== GPUs per node here)
  int pp = 8;   ///< pipeline stages
  int dp = 1;   ///< data-parallel replicas
  int vpp = 1;  ///< virtual pipeline stages per worker (interleaving, §2)
  bool sequence_parallel = true;
  int zero_stage = 2;

  int world() const { return tp * pp * dp; }
  bool valid() const {
    return tp >= 1 && pp >= 1 && dp >= 1 && vpp >= 1;
  }
};

struct RankCoord {
  int tp = 0;
  int dp = 0;
  int pp = 0;
  bool operator==(const RankCoord&) const = default;
};

/// rank = pp*(dp_size*tp_size) + dp*tp_size + tp.
RankCoord coord_of(int rank, const ParallelConfig& cfg);
int rank_of(const RankCoord& coord, const ParallelConfig& cfg);

/// Peer ranks of each communicator group containing `rank` (sorted,
/// includes `rank` itself).
std::vector<int> tp_group(int rank, const ParallelConfig& cfg);
std::vector<int> dp_group(int rank, const ParallelConfig& cfg);
std::vector<int> pp_group(int rank, const ParallelConfig& cfg);

}  // namespace ms::parallel
