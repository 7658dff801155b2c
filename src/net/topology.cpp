#include "net/topology.h"

#include <cassert>
#include <stdexcept>

namespace ms::net {

ClosTopology::ClosTopology(const ClosParams& params) : params_(params) {
  assert(params.hosts > 0 && params.nics_per_host > 0);
  assert(params.hosts_per_tor > 0 && params.pods > 0);
  assert(params.aggs_per_pod > 0 && params.spines_per_plane > 0);

  const int tors_per_rail = params_.tors_per_rail();

  first_host_ = 0;
  for (int h = 0; h < params_.hosts; ++h) {
    add_node(NodeKind::kHost, -1, "host" + std::to_string(h));
  }
  first_tor_ = static_cast<NodeId>(nodes_.size());
  for (int r = 0; r < params_.nics_per_host; ++r) {
    for (int t = 0; t < tors_per_rail; ++t) {
      add_node(NodeKind::kTor, r,
               "tor[r" + std::to_string(r) + "," + std::to_string(t) + "]");
    }
  }
  first_agg_ = static_cast<NodeId>(nodes_.size());
  for (int p = 0; p < params_.pods; ++p) {
    for (int a = 0; a < params_.aggs_per_pod; ++a) {
      add_node(NodeKind::kAgg, -1,
               "agg[p" + std::to_string(p) + "," + std::to_string(a) + "]");
    }
  }
  first_spine_ = static_cast<NodeId>(nodes_.size());
  for (int plane = 0; plane < params_.aggs_per_pod; ++plane) {
    for (int s = 0; s < params_.spines_per_plane; ++s) {
      add_node(NodeKind::kSpine, -1,
               "spine[pl" + std::to_string(plane) + "," + std::to_string(s) + "]");
    }
  }

  out_links_.resize(nodes_.size());

  // Without the port split, ToR uplinks run at NIC speed, so a single hash
  // conflict halves flow throughput; with it, uplinks have 2x headroom.
  const Bandwidth tor_up =
      params_.split_downlink_ports ? params_.tor_uplink_bw : params_.nic_bw;

  // Host <-> ToR (both directions), one link per NIC/rail.
  for (int h = 0; h < params_.hosts; ++h) {
    for (int r = 0; r < params_.nics_per_host; ++r) {
      const NodeId t = tor_of(h, r);
      add_link(host(h), t, params_.nic_bw);
      add_link(t, host(h), params_.nic_bw);
    }
  }
  // ToR <-> every agg in its pod.
  for (int r = 0; r < params_.nics_per_host; ++r) {
    for (int t = 0; t < tors_per_rail; ++t) {
      const int pod = params_.pod_of_tor_index(t);
      for (int a = 0; a < params_.aggs_per_pod; ++a) {
        add_link(tor(r, t), agg(pod, a), tor_up);
        add_link(agg(pod, a), tor(r, t), tor_up);
      }
    }
  }
  // Agg a of every pod <-> every spine in plane a.
  for (int p = 0; p < params_.pods; ++p) {
    for (int a = 0; a < params_.aggs_per_pod; ++a) {
      for (int s = 0; s < params_.spines_per_plane; ++s) {
        add_link(agg(p, a), spine(a, s), params_.agg_uplink_bw);
        add_link(spine(a, s), agg(p, a), params_.agg_uplink_bw);
      }
    }
  }
}

NodeId ClosTopology::add_node(NodeKind kind, int rail, std::string name) {
  Node n;
  n.id = static_cast<NodeId>(nodes_.size());
  n.kind = kind;
  n.rail = rail;
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

LinkId ClosTopology::add_link(NodeId src, NodeId dst, Bandwidth cap) {
  Link l;
  l.id = static_cast<LinkId>(links_.size());
  l.src = src;
  l.dst = dst;
  l.capacity = cap;
  links_.push_back(l);
  out_links_[static_cast<std::size_t>(src)].emplace_back(dst, l.id);
  return l.id;
}

LinkId ClosTopology::find_link(NodeId src, NodeId dst) const {
  for (const auto& [to, id] : out_links_[static_cast<std::size_t>(src)]) {
    if (to == dst) return id;
  }
  throw std::logic_error("ClosTopology: no link " + node(src).name + " -> " +
                         node(dst).name);
}

NodeId ClosTopology::host(int h) const {
  assert(h >= 0 && h < params_.hosts);
  return first_host_ + h;
}

NodeId ClosTopology::tor(int rail, int index_in_rail) const {
  assert(rail >= 0 && rail < params_.nics_per_host);
  assert(index_in_rail >= 0 && index_in_rail < params_.tors_per_rail());
  return first_tor_ + rail * params_.tors_per_rail() + index_in_rail;
}

NodeId ClosTopology::agg(int pod, int index_in_pod) const {
  assert(pod >= 0 && pod < params_.pods);
  assert(index_in_pod >= 0 && index_in_pod < params_.aggs_per_pod);
  return first_agg_ + pod * params_.aggs_per_pod + index_in_pod;
}

NodeId ClosTopology::spine(int plane, int index_in_plane) const {
  assert(plane >= 0 && plane < params_.aggs_per_pod);
  assert(index_in_plane >= 0 && index_in_plane < params_.spines_per_plane);
  return first_spine_ + plane * params_.spines_per_plane + index_in_plane;
}

NodeId ClosTopology::tor_of(int h, int rail) const {
  return tor(rail, h / params_.hosts_per_tor);
}

std::vector<Path> ClosTopology::ecmp_paths(int src_host, int dst_host,
                                           int rail) const {
  std::vector<Path> paths;
  if (src_host == dst_host) return paths;

  const NodeId s_tor = tor_of(src_host, rail);
  const NodeId d_tor = tor_of(dst_host, rail);
  const LinkId up0 = find_link(host(src_host), s_tor);
  const LinkId down_last = find_link(d_tor, host(dst_host));

  if (s_tor == d_tor) {
    paths.push_back({up0, down_last});
    return paths;
  }

  const int s_pod = params_.pod_of_tor_index(src_host / params_.hosts_per_tor);
  const int d_pod = params_.pod_of_tor_index(dst_host / params_.hosts_per_tor);

  if (s_pod == d_pod) {
    for (int a = 0; a < params_.aggs_per_pod; ++a) {
      const NodeId mid = agg(s_pod, a);
      paths.push_back(
          {up0, find_link(s_tor, mid), find_link(mid, d_tor), down_last});
    }
    return paths;
  }

  for (int a = 0; a < params_.aggs_per_pod; ++a) {
    const NodeId s_agg = agg(s_pod, a);
    const NodeId d_agg = agg(d_pod, a);
    for (int sp = 0; sp < params_.spines_per_plane; ++sp) {
      const NodeId core = spine(a, sp);
      paths.push_back({up0, find_link(s_tor, s_agg), find_link(s_agg, core),
                       find_link(core, d_agg), find_link(d_agg, d_tor),
                       down_last});
    }
  }
  return paths;
}

}  // namespace ms::net
