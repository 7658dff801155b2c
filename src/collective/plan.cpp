#include "collective/plan.h"

#include <cassert>

namespace ms::collective {

namespace {
int mod(int a, int n) { return ((a % n) + n) % n; }
}  // namespace

CollPlan ring_all_gather_plan(int ranks, Bytes total) {
  assert(ranks >= 1 && total >= 0);
  CollPlan plan;
  if (ranks == 1) return plan;
  const Bytes chunk_bytes = total / ranks;
  for (int r = 0; r < ranks - 1; ++r) {
    std::vector<CollStep> round;
    round.reserve(static_cast<std::size_t>(ranks));
    for (int i = 0; i < ranks; ++i) {
      CollStep s;
      s.src = i;
      s.dst = mod(i + 1, ranks);
      s.chunk = mod(i - r, ranks);
      s.bytes = chunk_bytes;
      round.push_back(s);
    }
    plan.push_back(std::move(round));
  }
  return plan;
}

CollPlan ring_reduce_scatter_plan(int ranks, Bytes total) {
  assert(ranks >= 1 && total >= 0);
  CollPlan plan;
  if (ranks == 1) return plan;
  const Bytes chunk_bytes = total / ranks;
  // In round r, rank i sends its partial of chunk (i - r) mod n to rank
  // i+1, which accumulates it. After n-1 rounds rank i holds the full sum
  // of chunk (i + 1) mod n.
  for (int r = 0; r < ranks - 1; ++r) {
    std::vector<CollStep> round;
    round.reserve(static_cast<std::size_t>(ranks));
    for (int i = 0; i < ranks; ++i) {
      CollStep s;
      s.src = i;
      s.dst = mod(i + 1, ranks);
      s.chunk = mod(i - r, ranks);
      s.bytes = chunk_bytes;
      round.push_back(s);
    }
    plan.push_back(std::move(round));
  }
  return plan;
}

CollPlan ring_all_reduce_plan(int ranks, Bytes total) {
  CollPlan plan = ring_reduce_scatter_plan(ranks, total);
  CollPlan gather = ring_all_gather_plan(ranks, total);
  // After the reduce-scatter above, rank i owns reduced chunk (i+1) mod n.
  // The all-gather plan assumes rank i owns chunk i; shift chunk labels so
  // the composition is consistent.
  for (auto& round : gather) {
    for (auto& step : round) {
      step.chunk = mod(step.chunk + 1, ranks);
    }
  }
  for (auto& round : gather) plan.push_back(std::move(round));
  return plan;
}

}  // namespace ms::collective
