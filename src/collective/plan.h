// Collective algorithm plans: the explicit per-round send/receive schedule
// of ring collectives.
//
// The cost model in comm.h gives closed-form durations; the plans here give
// the actual data movement. They serve two purposes:
//  * correctness property tests — after executing an all-gather plan, every
//    rank must hold every chunk; after a reduce-scatter, rank i must hold
//    the fully-reduced chunk i (tests simulate chunk possession sets);
//  * network validation — the flows of each round can be placed onto the
//    ms::net flow simulator to check the alpha-beta cost model against a
//    max-min fair fabric.
#pragma once

#include <vector>

#include "core/units.h"

namespace ms::collective {

/// One point-to-point transfer within a collective round.
struct CollStep {
  int src = 0;
  int dst = 0;
  int chunk = 0;   // which data chunk moves
  Bytes bytes = 0;
};

/// Rounds execute sequentially; steps within a round run concurrently.
using CollPlan = std::vector<std::vector<CollStep>>;

/// Ring all-gather: `total` bytes of output, divided into n chunks; rank i
/// initially owns chunk i. n-1 rounds; in round r, rank i sends chunk
/// (i - r) mod n to rank (i+1) mod n.
CollPlan ring_all_gather_plan(int ranks, Bytes total);

/// Ring reduce-scatter: `total` bytes of input per rank, n chunks; after
/// n-1 rounds rank i holds the fully reduced chunk (i+1) mod n.
CollPlan ring_reduce_scatter_plan(int ranks, Bytes total);

/// Ring all-reduce = reduce-scatter followed by all-gather (2(n-1) rounds).
CollPlan ring_all_reduce_plan(int ranks, Bytes total);

}  // namespace ms::collective
