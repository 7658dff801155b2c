#include "diag/viz3d.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace ms::diag {

using parallel::coord_of;
using parallel::dp_group;
using parallel::pp_group;
using parallel::rank_of;
using parallel::tp_group;

std::string Parallel3DVisualizer::describe(int rank) const {
  const auto c = coord_of(rank, cfg_);
  std::ostringstream out;
  out << "rank " << rank << " @ (tp=" << c.tp << ", dp=" << c.dp
      << ", pp=" << c.pp << ")\n";
  out << "  tensor group   :";
  for (int r : tp_group(rank, cfg_)) out << ' ' << r;
  out << "  (all-gather / reduce-scatter per layer)\n";
  out << "  data group     :";
  for (int r : dp_group(rank, cfg_)) out << ' ' << r;
  out << "  (param all-gather fwd, grad reduce-scatter bwd)\n";
  out << "  pipeline group :";
  for (int r : pp_group(rank, cfg_)) out << ' ' << r;
  out << "\n";
  if (c.pp > 0) {
    auto prev = c;
    prev.pp = c.pp - 1;
    out << "  recv activations from rank " << rank_of(prev, cfg_) << "\n";
  }
  if (c.pp < cfg_.pp - 1) {
    auto next = c;
    next.pp = c.pp + 1;
    out << "  send activations to rank " << rank_of(next, cfg_) << "\n";
  }
  return out.str();
}

std::vector<int> Parallel3DVisualizer::locate_hung_ranks(
    const std::map<int, std::string>& last_logged_op) const {
  std::set<int> silent;
  for (int r = 0; r < cfg_.world(); ++r) {
    if (!last_logged_op.count(r)) silent.insert(r);
  }
  if (silent.empty()) return {};

  // A silent rank is a suspect if some complaining rank shares a
  // communication group with it — the complainer was waiting on that group.
  std::set<int> suspects;
  for (const auto& [victim, op] : last_logged_op) {
    (void)op;
    for (const auto& group :
         {tp_group(victim, cfg_), dp_group(victim, cfg_),
          pp_group(victim, cfg_)}) {
      for (int member : group) {
        if (silent.count(member)) suspects.insert(member);
      }
    }
  }
  if (suspects.empty()) {
    // No overlap information: every silent rank stays a suspect.
    suspects = silent;
  }
  return {suspects.begin(), suspects.end()};
}

}  // namespace ms::diag
