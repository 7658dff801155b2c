#include "dist/collectives.h"

#include <cassert>

#include "collective/plan.h"

namespace ms::dist {

void ring_all_reduce_sum(std::vector<Buffer*> ranks) {
  const int n = static_cast<int>(ranks.size());
  assert(n >= 1);
  if (n == 1) return;
  const std::size_t size = ranks[0]->size();
  for ([[maybe_unused]] auto* b : ranks) {
    assert(b->size() == size);
  }
  assert(size % static_cast<std::size_t>(n) == 0);
  const std::size_t chunk = size / static_cast<std::size_t>(n);

  const auto plan = collective::ring_all_reduce_plan(
      n, static_cast<Bytes>(size) * static_cast<Bytes>(sizeof(float)));
  const std::size_t reduce_rounds = static_cast<std::size_t>(n - 1);
  for (std::size_t round = 0; round < plan.size(); ++round) {
    const bool reducing = round < reduce_rounds;
    // Steps within a round are concurrent: snapshot the outgoing chunks
    // first so a rank's send is not polluted by what it receives this
    // round.
    std::vector<Buffer> outgoing;
    outgoing.reserve(plan[round].size());
    for (const auto& step : plan[round]) {
      const float* src = ranks[static_cast<std::size_t>(step.src)]->data() +
                         static_cast<std::size_t>(step.chunk) * chunk;
      outgoing.emplace_back(src, src + chunk);
    }
    for (std::size_t i = 0; i < plan[round].size(); ++i) {
      const auto& step = plan[round][i];
      float* dst = ranks[static_cast<std::size_t>(step.dst)]->data() +
                   static_cast<std::size_t>(step.chunk) * chunk;
      const Buffer& payload = outgoing[i];
      if (reducing) {
        for (std::size_t j = 0; j < chunk; ++j) dst[j] += payload[j];
      } else {
        for (std::size_t j = 0; j < chunk; ++j) dst[j] = payload[j];
      }
    }
  }
}

Buffer all_gather_concat(const std::vector<const Buffer*>& shards) {
  Buffer out;
  for (const auto* s : shards) {
    out.insert(out.end(), s->begin(), s->end());
  }
  return out;
}

std::vector<Buffer> reduce_scatter_sum(const std::vector<const Buffer*>& inputs,
                                       int ranks) {
  assert(!inputs.empty() && ranks >= 1);
  const std::size_t size = inputs[0]->size();
  assert(size % static_cast<std::size_t>(ranks) == 0);
  const std::size_t chunk = size / static_cast<std::size_t>(ranks);
  std::vector<Buffer> shards(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    Buffer& shard = shards[static_cast<std::size_t>(r)];
    shard.assign(chunk, 0.0f);
    for (const auto* in : inputs) {
      assert(in->size() == size);
      const float* src = in->data() + static_cast<std::size_t>(r) * chunk;
      for (std::size_t j = 0; j < chunk; ++j) shard[j] += src[j];
    }
  }
  return shards;
}

}  // namespace ms::dist
