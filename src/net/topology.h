// Datacenter network topology (MegaScale §3.6).
//
// The paper's fabric: three switch layers (ToR / aggregation / spine) in a
// CLOS topology built from Tomahawk-4 class switches, 1:1
// downlink:uplink provisioning per switch, eight 200G NICs per GPU server
// connected multi-rail (NIC i of every host goes to rail-i ToR switches),
// and an optional port-split where one 400G ToR downlink port is split into
// two 200G ports so each uplink has twice the bandwidth of a downlink.
//
// We model the fabric as an explicit graph of hosts, ToRs, aggs and spines
// with capacity-annotated unidirectional links, and enumerate the
// equal-cost path set between any two host NICs. Spines are arranged in
// planes (one plane per agg index), the standard fat-tree wiring: a path is
// fully determined by (agg choice, spine-in-plane choice), so the inter-pod
// ECMP fan-out equals the spine count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/units.h"

namespace ms::net {

enum class NodeKind { kHost, kTor, kAgg, kSpine };

using NodeId = std::int32_t;
using LinkId = std::int32_t;

struct Node {
  NodeId id = -1;
  NodeKind kind = NodeKind::kHost;
  int rail = -1;  // for ToRs: which rail this switch serves; -1 otherwise
  std::string name;
};

struct Link {
  LinkId id = -1;
  NodeId src = -1;
  NodeId dst = -1;
  Bandwidth capacity = 0;
};

/// A unidirectional route: ordered list of link ids.
using Path = std::vector<LinkId>;

struct ClosParams {
  int hosts = 128;            // GPU servers
  int nics_per_host = 8;      // rails; NIC r of every host -> rail-r ToR
  int hosts_per_tor = 64;     // servers under one ToR (per rail)
  int pods = 2;               // groups of ToRs sharing an agg layer
  int aggs_per_pod = 4;
  int spines_per_plane = 4;   // planes == aggs_per_pod
  Bandwidth nic_bw = gbps(200);
  Bandwidth tor_uplink_bw = gbps(400);   // paper: uplink = 2x NIC downlink
  Bandwidth agg_uplink_bw = gbps(400);
  /// If false, model the untuned fabric where ToR downlink ports are not
  /// split: uplinks run at the same 200G as a downlink, so two flows hashed
  /// onto one uplink halve each other (the conflict the paper's port-split
  /// mitigates).
  bool split_downlink_ports = true;

  int tors_per_rail() const {
    return (hosts + hosts_per_tor - 1) / hosts_per_tor;
  }
  int tor_count() const { return tors_per_rail() * nics_per_host; }
  int spine_count() const { return aggs_per_pod * spines_per_plane; }
  /// ToRs of one rail are distributed round-robin over pods.
  int pod_of_tor_index(int tor_index_in_rail) const {
    return tor_index_in_rail % pods;
  }
};

class ClosTopology {
 public:
  explicit ClosTopology(const ClosParams& params);

  const ClosParams& params() const { return params_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Link>& links() const { return links_; }
  const Link& link(LinkId id) const { return links_[static_cast<std::size_t>(id)]; }
  const Node& node(NodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }

  NodeId host(int h) const;
  NodeId tor(int rail, int index_in_rail) const;
  NodeId agg(int pod, int index_in_pod) const;
  NodeId spine(int plane, int index_in_plane) const;

  /// ToR serving (host, rail).
  NodeId tor_of(int host, int rail) const;

  /// All equal-cost paths from NIC `rail` of host `src` to NIC `rail` of
  /// host `dst`. Multi-rail fabrics keep a flow on one rail end-to-end.
  ///  - same host: empty path set (loopback is intra-host, see ft diagnostics)
  ///  - same ToR:  one two-hop path (up, down)
  ///  - same pod:  aggs_per_pod paths (up, up, down, down)
  ///  - cross pod: spine_count paths (up, up, up, down, down, down)
  std::vector<Path> ecmp_paths(int src_host, int dst_host, int rail) const;

 private:
  LinkId add_link(NodeId src, NodeId dst, Bandwidth cap);
  NodeId add_node(NodeKind kind, int rail, std::string name);
  LinkId find_link(NodeId src, NodeId dst) const;

  ClosParams params_;
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  // Dense adjacency for find_link: map (src, dst) -> link id.
  std::vector<std::vector<std::pair<NodeId, LinkId>>> out_links_;

  NodeId first_host_ = 0;
  NodeId first_tor_ = 0;
  NodeId first_agg_ = 0;
  NodeId first_spine_ = 0;
};

}  // namespace ms::net
