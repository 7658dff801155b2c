#include "parallel/mapping.h"

namespace ms::parallel {

RankCoord coord_of(int rank, const ParallelConfig& cfg) {
  assert(cfg.valid() && rank >= 0 && rank < cfg.world());
  RankCoord c;
  c.tp = rank % cfg.tp;
  c.dp = (rank / cfg.tp) % cfg.dp;
  c.pp = rank / (cfg.tp * cfg.dp);
  return c;
}

int rank_of(const RankCoord& coord, const ParallelConfig& cfg) {
  assert(coord.tp >= 0 && coord.tp < cfg.tp);
  assert(coord.dp >= 0 && coord.dp < cfg.dp);
  assert(coord.pp >= 0 && coord.pp < cfg.pp);
  return coord.pp * (cfg.dp * cfg.tp) + coord.dp * cfg.tp + coord.tp;
}

std::vector<int> tp_group(int rank, const ParallelConfig& cfg) {
  RankCoord c = coord_of(rank, cfg);
  std::vector<int> group;
  group.reserve(static_cast<std::size_t>(cfg.tp));
  for (c.tp = 0; c.tp < cfg.tp; ++c.tp) group.push_back(rank_of(c, cfg));
  return group;
}

std::vector<int> dp_group(int rank, const ParallelConfig& cfg) {
  RankCoord c = coord_of(rank, cfg);
  std::vector<int> group;
  group.reserve(static_cast<std::size_t>(cfg.dp));
  for (c.dp = 0; c.dp < cfg.dp; ++c.dp) group.push_back(rank_of(c, cfg));
  return group;
}

std::vector<int> pp_group(int rank, const ParallelConfig& cfg) {
  RankCoord c = coord_of(rank, cfg);
  std::vector<int> group;
  group.reserve(static_cast<std::size_t>(cfg.pp));
  for (c.pp = 0; c.pp < cfg.pp; ++c.pp) group.push_back(rank_of(c, cfg));
  return group;
}

}  // namespace ms::parallel
