#include "collective/comm.h"

#include <cassert>
#include <cmath>
#include <string>

#include "check/audit.h"
#include "telemetry/metrics.h"

namespace ms::collective {

CollectiveModel::CollectiveModel(const ClusterSpec& cluster,
                                 double network_efficiency)
    : cluster_(cluster), network_efficiency_(network_efficiency) {
  assert(network_efficiency > 0 && network_efficiency <= 1.0);
}

Bandwidth CollectiveModel::bandwidth(Domain domain) const {
  switch (domain) {
    case Domain::kIntraNode:
      return cluster_.nvlink_bw;
    case Domain::kInterNode:
      return cluster_.nic_bw * network_efficiency_;
  }
  return cluster_.nic_bw;
}

TimeNs CollectiveModel::latency(Domain domain) const {
  return domain == Domain::kIntraNode ? cluster_.nvlink_latency
                                      : cluster_.net_latency;
}

namespace {
TimeNs transfer_time(double bytes, Bandwidth bw) {
  return seconds(bytes / bw);
}
}  // namespace

void CollectiveModel::audit_cost(const char* op, Domain domain, int ranks,
                                 Bytes bytes, TimeNs t) const {
#if defined(MS_AUDIT_ENABLED) && MS_AUDIT_ENABLED
  MS_AUDIT("collective.model", "cost_nonnegative", t >= 0,
           std::string(op) + " cost " + std::to_string(t) + "ns for " +
               std::to_string(bytes) + " bytes");
  MutexLock lock(audit_mu_);
  auto key = std::make_tuple(std::string(op), static_cast<int>(domain), ranks);
  auto it = audit_last_.find(key);
  if (it != audit_last_.end()) {
    const auto [prev_bytes, prev_t] = it->second;
    const bool monotone = (bytes >= prev_bytes && t >= prev_t) ||
                          (bytes <= prev_bytes && t <= prev_t);
    MS_AUDIT("collective.model", "cost_monotone_in_bytes", monotone,
             std::string(op) + ": " + std::to_string(bytes) + "B -> " +
                 std::to_string(t) + "ns vs " + std::to_string(prev_bytes) +
                 "B -> " + std::to_string(prev_t) + "ns");
    it->second = {bytes, t};
  } else {
    audit_last_.emplace(std::move(key), std::make_pair(bytes, t));
  }
#else
  (void)op;
  (void)domain;
  (void)ranks;
  (void)bytes;
  (void)t;
#endif
}

void CollectiveModel::record(const char* op, Domain domain, Bytes bytes,
                             TimeNs t) const {
  if (metrics_ == nullptr) return;
  const telemetry::Labels labels{
      {"op", op},
      {"domain", domain == Domain::kIntraNode ? "intra" : "inter"}};
  metrics_->counter("collective_calls_total", labels).add();
  metrics_->counter("collective_bytes_total", labels)
      .add(static_cast<double>(bytes));
  metrics_->histogram("collective_latency_seconds", labels)
      .observe(to_seconds(t));
}

TimeNs CollectiveModel::all_reduce(Bytes bytes, int ranks, Domain domain) const {
  assert(ranks >= 1 && bytes >= 0);
  if (ranks == 1 || bytes == 0) return 0;
  const double n = ranks;
  const double payload = 2.0 * (n - 1.0) / n * static_cast<double>(bytes);
  const TimeNs t = transfer_time(payload, bandwidth(domain)) +
                   2 * (ranks - 1) * latency(domain);
  audit_cost("allreduce", domain, ranks, bytes, t);
  record("allreduce", domain, bytes, t);
  return t;
}

TimeNs CollectiveModel::all_gather(Bytes bytes, int ranks, Domain domain) const {
  assert(ranks >= 1 && bytes >= 0);
  if (ranks == 1 || bytes == 0) return 0;
  const double n = ranks;
  const double payload = (n - 1.0) / n * static_cast<double>(bytes);
  const TimeNs t = transfer_time(payload, bandwidth(domain)) +
                   (ranks - 1) * latency(domain);
  audit_cost("allgather", domain, ranks, bytes, t);
  record("allgather", domain, bytes, t);
  return t;
}

TimeNs CollectiveModel::reduce_scatter(Bytes bytes, int ranks,
                                       Domain domain) const {
  assert(ranks >= 1 && bytes >= 0);
  if (ranks == 1 || bytes == 0) return 0;
  const double n = ranks;
  const double payload = (n - 1.0) / n * static_cast<double>(bytes);
  const TimeNs t = transfer_time(payload, bandwidth(domain)) +
                   (ranks - 1) * latency(domain);
  audit_cost("reducescatter", domain, ranks, bytes, t);
  record("reducescatter", domain, bytes, t);
  return t;
}

TimeNs CollectiveModel::send_recv(Bytes bytes, Domain domain) const {
  assert(bytes >= 0);
  if (bytes == 0) return 0;
  const TimeNs t = transfer_time(static_cast<double>(bytes), bandwidth(domain)) +
                   latency(domain);
  audit_cost("sendrecv", domain, /*ranks=*/2, bytes, t);
  record("sendrecv", domain, bytes, t);
  return t;
}

TimeNs CollectiveModel::hierarchical_all_reduce(Bytes bytes, int nodes,
                                                int gpus_per_node) const {
  assert(nodes >= 1 && gpus_per_node >= 1 && bytes >= 0);
  if (bytes == 0) return 0;
  const TimeNs intra_rs =
      reduce_scatter(bytes, gpus_per_node, Domain::kIntraNode);
  const TimeNs inter =
      all_reduce(bytes / gpus_per_node, nodes, Domain::kInterNode);
  const TimeNs intra_ag = all_gather(bytes, gpus_per_node, Domain::kIntraNode);
  return intra_rs + inter + intra_ag;
}

}  // namespace ms::collective
