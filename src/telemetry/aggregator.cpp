#include "telemetry/aggregator.h"

#include "prof/profiler.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ms::telemetry {

namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

}  // namespace

AggregationTree::AggregationTree(const AggTreeConfig& cfg)
    : cfg_(cfg), model_(cfg.cluster, cfg.network_efficiency) {
  if (cfg_.ranks <= 0 || cfg_.ranks_per_host <= 0 || cfg_.hosts_per_pod <= 0) {
    throw std::invalid_argument(
        "AggregationTree: ranks, ranks_per_host and hosts_per_pod must be > 0"
        " (got " + std::to_string(cfg_.ranks) + ", " +
        std::to_string(cfg_.ranks_per_host) + ", " +
        std::to_string(cfg_.hosts_per_pod) + ")");
  }
  hosts_ = ceil_div(cfg_.ranks, cfg_.ranks_per_host);
  pods_ = ceil_div(hosts_, cfg_.hosts_per_pod);
  leaves_.resize(static_cast<std::size_t>(cfg_.ranks));
  rank_dirty_.assign(static_cast<std::size_t>(cfg_.ranks), 0);
  host_cache_.resize(static_cast<std::size_t>(hosts_));
  pod_cache_.resize(static_cast<std::size_t>(pods_));
}

void AggregationTree::submit(int rank, SketchSnapshot snapshot) {
  if (rank < 0 || rank >= cfg_.ranks) {
    throw std::invalid_argument("AggregationTree::submit: rank " +
                                std::to_string(rank) + " outside [0, " +
                                std::to_string(cfg_.ranks) + ")");
  }
  leaves_[static_cast<std::size_t>(rank)] = std::move(snapshot);
  rank_dirty_[static_cast<std::size_t>(rank)] = 1;
}

SketchSnapshot AggregationTree::flat_merge() const {
  SketchSnapshot out;
  for (const auto& leaf : leaves_) out.merge(leaf);
  return out;
}

FlushReport AggregationTree::flush() {
  MS_PROF_SCOPE("telemetry.agg_flush");
  FlushReport report;

  // A subtree is dirty when any leaf under it re-submitted since the last
  // flush. Clean subtrees neither ship nor merge: their parent reuses the
  // retained aggregate from host_cache_ / pod_cache_.
  std::vector<char> host_dirty(static_cast<std::size_t>(hosts_), 0);
  std::vector<char> pod_dirty(static_cast<std::size_t>(pods_), 0);
  for (int rank = 0; rank < cfg_.ranks; ++rank) {
    if (rank_dirty_[static_cast<std::size_t>(rank)]) {
      host_dirty[static_cast<std::size_t>(rank / cfg_.ranks_per_host)] = 1;
    }
  }
  for (int host = 0; host < hosts_; ++host) {
    if (host_dirty[static_cast<std::size_t>(host)]) {
      pod_dirty[static_cast<std::size_t>(host / cfg_.hosts_per_pod)] = 1;
    }
  }

  // ---- level 0: rank -> host (NVLink / shared memory) -------------------
  // Sender/byte/latency accounting covers only the dirty ranks — a rank
  // with no fresh snapshot ships nothing, and an all-clean host skips its
  // rebuild entirely.
  LevelReport l0;
  l0.level = "rank->host";
  l0.receivers = hosts_;
  l0.fan_in = cfg_.ranks_per_host;
  for (int host = 0; host < hosts_; ++host) {
    if (!host_dirty[static_cast<std::size_t>(host)]) continue;
    TimeNs ingest = 0;
    const int lo = host * cfg_.ranks_per_host;
    const int hi = std::min(cfg_.ranks, lo + cfg_.ranks_per_host);
    auto& merged = host_cache_[static_cast<std::size_t>(host)];
    merged = SketchSnapshot();
    for (int rank = lo; rank < hi; ++rank) {
      const auto& leaf = leaves_[static_cast<std::size_t>(rank)];
      merged.merge(leaf);
      if (!rank_dirty_[static_cast<std::size_t>(rank)]) continue;
      const Bytes bytes = leaf.encoded_bytes();
      ++l0.senders;
      l0.bytes += bytes;
      ingest += model_.send_recv(bytes, collective::Domain::kIntraNode);
      ingest += cfg_.merge_cost_per_series *
                static_cast<TimeNs>(leaf.size());
    }
    l0.stage_latency = std::max(l0.stage_latency, ingest);
  }
  report.intra_bytes = l0.bytes;
  report.levels.push_back(l0);

  // ---- level 1: host -> pod (RDMA fabric) -------------------------------
  LevelReport l1;
  l1.level = "host->pod";
  l1.receivers = pods_;
  l1.fan_in = cfg_.hosts_per_pod;
  Bytes max_host_uplink = 0;
  for (int pod = 0; pod < pods_; ++pod) {
    if (!pod_dirty[static_cast<std::size_t>(pod)]) continue;
    TimeNs ingest = 0;
    const int lo = pod * cfg_.hosts_per_pod;
    const int hi = std::min(hosts_, lo + cfg_.hosts_per_pod);
    auto& merged = pod_cache_[static_cast<std::size_t>(pod)];
    merged = SketchSnapshot();
    for (int host = lo; host < hi; ++host) {
      const auto& snap = host_cache_[static_cast<std::size_t>(host)];
      merged.merge(snap);
      if (!host_dirty[static_cast<std::size_t>(host)]) continue;
      const Bytes bytes = snap.encoded_bytes();
      ++l1.senders;
      l1.bytes += bytes;
      max_host_uplink = std::max(max_host_uplink, bytes);
      ingest += model_.send_recv(bytes, collective::Domain::kInterNode);
      ingest += cfg_.merge_cost_per_series *
                static_cast<TimeNs>(snap.size());
    }
    l1.stage_latency = std::max(l1.stage_latency, ingest);
  }
  report.levels.push_back(l1);

  // ---- level 2: pod -> cluster root (RDMA fabric) -----------------------
  LevelReport l2;
  l2.level = "pod->cluster";
  l2.receivers = 1;
  l2.fan_in = pods_;
  bool any_dirty = false;
  for (int pod = 0; pod < pods_; ++pod) {
    if (pod_dirty[static_cast<std::size_t>(pod)]) any_dirty = true;
  }
  if (any_dirty) {
    root_ = SketchSnapshot();
    for (int pod = 0; pod < pods_; ++pod) {
      const auto& snap = pod_cache_[static_cast<std::size_t>(pod)];
      root_.merge(snap);
      if (!pod_dirty[static_cast<std::size_t>(pod)]) continue;
      const Bytes bytes = snap.encoded_bytes();
      ++l2.senders;
      l2.bytes += bytes;
      l2.stage_latency +=
          model_.send_recv(bytes, collective::Domain::kInterNode) +
          cfg_.merge_cost_per_series * static_cast<TimeNs>(snap.size());
    }
  }
  report.levels.push_back(l2);
  std::fill(rank_dirty_.begin(), rank_dirty_.end(), 0);

  report.network_bytes = l1.bytes + l2.bytes;
  network_bytes_total_ += report.network_bytes;
  report.propagation_latency =
      l0.stage_latency + l1.stage_latency + l2.stage_latency;

  // The contended resource is a host's uplink NIC: it carries the merged
  // host sketch once per flush interval, next to the job's training
  // traffic on the same rails.
  const double interval_s = to_seconds(cfg_.flush_interval);
  report.per_host_uplink =
      interval_s > 0
          ? static_cast<double>(max_host_uplink) / interval_s
          : 0.0;
  const Bandwidth training_bw = cfg_.cluster.nic_bw *
                                cfg_.cluster.gpus_per_node *
                                cfg_.network_efficiency;
  report.overhead_fraction =
      training_bw > 0 ? report.per_host_uplink / training_bw : 0.0;

  if (cfg_.metrics != nullptr) {
    auto& m = *cfg_.metrics;
    m.counter("telemetry_agg_flushes_total").add();
    for (const auto& level : report.levels) {
      m.counter("telemetry_agg_bytes_total", {{"level", level.level}})
          .add(static_cast<double>(level.bytes));
    }
    m.gauge("telemetry_agg_overhead_fraction").set(report.overhead_fraction);
    m.gauge("telemetry_agg_propagation_seconds")
        .set(to_seconds(report.propagation_latency));
  }
  return report;
}

}  // namespace ms::telemetry
