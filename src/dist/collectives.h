// Functional collectives: NCCL semantics over in-memory buffers.
//
// Where ms::collective models the *time* of a collective, this module
// executes its *data movement* for real: the ring all-reduce runs the exact
// per-round plan from collective/plan.h over float buffers, so the plan's
// correctness (and the reduce-then-gather composition) is validated on
// actual data — and the functional parallelism in this directory has true
// NCCL-equivalent building blocks.
#pragma once

#include <vector>

namespace ms::dist {

using Buffer = std::vector<float>;

/// Ring all-reduce (sum): executes collective::ring_all_reduce_plan round
/// by round. All buffers must have equal size divisible by the rank count.
/// Afterwards every buffer holds the elementwise sum.
void ring_all_reduce_sum(std::vector<Buffer*> ranks);

/// Concatenation all-gather: shards (equal size) -> full buffer.
Buffer all_gather_concat(const std::vector<const Buffer*>& shards);

/// Reduce-scatter (sum): k equal-size inputs -> k shards; shard i holds the
/// i-th slice of the elementwise sum.
std::vector<Buffer> reduce_scatter_sum(const std::vector<const Buffer*>& inputs,
                                       int ranks);

}  // namespace ms::dist
