// NCCL-like collective cost model.
//
// Collectives are modeled with the standard alpha-beta (latency-bandwidth)
// formulation of ring algorithms, parameterized separately for the NVLink
// domain (tensor parallelism stays inside one node, §2) and the RDMA
// network domain (data/pipeline parallelism cross nodes). A contention
// factor — derived from the ECMP analysis in ms::net — scales effective
// network bandwidth down. The model is cross-validated against the
// max-min-fair flow simulator in tests (collective_test.cpp).
#pragma once

#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "core/time.h"
#include "core/units.h"

namespace ms::telemetry {
class MetricsRegistry;
}  // namespace ms::telemetry

namespace ms::collective {

/// Per-GPU device characteristics (defaults: NVIDIA A100-like, the paper's
/// "Ampere GPUs").
struct GpuSpec {
  Flops peak_flops = tera(312.0);   // bf16 tensor core peak
  Bandwidth hbm_bw = gBps(2039.0);  // HBM2e
};

/// Cluster fabric characteristics.
struct ClusterSpec {
  GpuSpec gpu;
  int gpus_per_node = 8;
  /// Per-GPU NVLink bus bandwidth usable by collectives inside a node.
  /// Nominal NVLink3 is 300 GB/s; ring collectives on training-sized
  /// messages attain roughly half of it in practice.
  Bandwidth nvlink_bw = gBps(160.0);
  TimeNs nvlink_latency = microseconds(4.0);
  /// Per-GPU network bandwidth (one 200G RNIC per GPU, multi-rail).
  Bandwidth nic_bw = gbps(200.0);
  TimeNs net_latency = microseconds(12.0);
  /// PCIe bandwidth host<->device (checkpointing path, §4.4).
  Bandwidth pcie_bw = gBps(25.0);
};

enum class Domain {
  kIntraNode,  // NVLink
  kInterNode,  // RDMA fabric
};

class CollectiveModel {
 public:
  /// `network_efficiency` in (0,1]: fraction of nominal NIC bandwidth that
  /// collectives attain across the fabric (ECMP conflicts, CC overhead).
  explicit CollectiveModel(const ClusterSpec& cluster,
                           double network_efficiency = 0.9);

  const ClusterSpec& cluster() const { return cluster_; }
  double network_efficiency() const { return network_efficiency_; }

  /// Optional telemetry (not owned; nullptr disables). Every cost query
  /// records `collective_calls_total` / `collective_bytes_total` counters
  /// and a `collective_latency_seconds` histogram, labeled
  /// {op=<collective>, domain=intra|inter}.
  void set_metrics(telemetry::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Ring all-reduce over `ranks` participants of `bytes` payload:
  /// 2*(n-1)/n * S/B + 2*(n-1)*alpha.
  TimeNs all_reduce(Bytes bytes, int ranks, Domain domain) const;

  /// Ring all-gather (output size `bytes` across all ranks):
  /// (n-1)/n * S/B + (n-1)*alpha.
  TimeNs all_gather(Bytes bytes, int ranks, Domain domain) const;

  /// Ring reduce-scatter — same cost shape as all-gather.
  TimeNs reduce_scatter(Bytes bytes, int ranks, Domain domain) const;

  /// Point-to-point transfer (pipeline parallelism send/recv).
  TimeNs send_recv(Bytes bytes, Domain domain) const;

  /// Hierarchical all-reduce across `nodes` machines of `gpus_per_node`
  /// GPUs: intra-node reduce-scatter (NVLink), inter-node all-reduce of the
  /// 1/gpus_per_node shard (network), intra-node all-gather. For large node
  /// counts this beats the flat ring because the latency term scales with
  /// `nodes` instead of `nodes * gpus_per_node` and the NVLink hops are
  /// nearly free.
  TimeNs hierarchical_all_reduce(Bytes bytes, int nodes,
                                 int gpus_per_node) const;

  Bandwidth bandwidth(Domain domain) const;
  TimeNs latency(Domain domain) const;

 private:
  void record(const char* op, Domain domain, Bytes bytes, TimeNs t) const;
  /// MS_AUDIT hook: α–β costs are monotone in bytes (per op/domain/ranks)
  /// and never undercut the pure latency term. No-op when auditing is
  /// compiled out.
  void audit_cost(const char* op, Domain domain, int ranks, Bytes bytes,
                  TimeNs t) const;

  ClusterSpec cluster_;
  double network_efficiency_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  // Last (bytes, cost) per (op, domain, ranks) — backing state for
  // audit_cost's cross-call monotonicity invariant.
  mutable Mutex audit_mu_;
  mutable std::map<std::tuple<std::string, int, int>, std::pair<Bytes, TimeNs>>
      audit_last_ MS_GUARDED_BY(audit_mu_);
};

}  // namespace ms::collective
