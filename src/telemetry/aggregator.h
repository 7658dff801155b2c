// Simulated hierarchical metric aggregation tree (MegaScale §5).
//
// The paper collects per-machine metrics at millisecond granularity from
// 10,000+ GPUs. A flat collector would melt: 10k ranks posting sketches
// straight to one endpoint is an incast. Production systems aggregate
// along the physical hierarchy instead — rank -> host -> pod -> cluster —
// merging mergeable sketches (telemetry/sketch.h) at each hop so fan-in
// stays bounded and the root sees one merged snapshot per flush.
//
// This module simulates that tree with real cost accounting: every flush
// charges its serialized sketch bytes through the collective α-β network
// model (NVLink for the on-host hop, the RDMA fabric for host->pod and
// pod->cluster), plus a per-series merge cost at each aggregator. The
// outputs are the two numbers the paper's claim turns on:
//   * propagation latency per flush — can the tree actually sustain
//     millisecond-granularity collection end to end?
//   * telemetry traffic as a fraction of training bandwidth — what does
//     observability cost the job? (fig11 gates this below 1%.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "collective/comm.h"
#include "core/time.h"
#include "core/units.h"
#include "telemetry/sketch.h"

namespace ms::telemetry {

struct AggTreeConfig {
  /// Leaves of the tree (one metric-exporting rank per GPU).
  int ranks = 128;
  /// Fan-in of the on-host aggregator (rank -> host hop, NVLink/shm).
  int ranks_per_host = 8;
  /// Fan-in of the pod aggregator (host -> pod hop, RDMA fabric).
  int hosts_per_pod = 32;
  /// Collection period: every leaf ships its sketch once per interval.
  /// 100 ms is the paper's "millisecond granularity" working point.
  TimeNs flush_interval = milliseconds(100.0);
  /// CPU cost to merge one series into an aggregator's accumulator.
  TimeNs merge_cost_per_series = nanoseconds(150);
  /// Fabric the telemetry traffic shares with training.
  collective::ClusterSpec cluster;
  double network_efficiency = 0.9;
  /// Optional self-telemetry (not owned): the tree counts its own flushes
  /// and bytes per level — observability observing itself.
  MetricsRegistry* metrics = nullptr;
};

/// Per-level traffic/latency accounting for one flush.
struct LevelReport {
  std::string level;  // "rank->host", "host->pod", "pod->cluster"
  int senders = 0;
  int receivers = 0;
  int fan_in = 0;
  /// Serialized sketch bytes crossing this level, summed over senders.
  Bytes bytes = 0;
  /// Slowest receiver: serialized ingest of fan_in sketches + merge CPU.
  TimeNs stage_latency = 0;
};

struct FlushReport {
  std::vector<LevelReport> levels;
  /// Bytes that touched the RDMA fabric (host->pod + pod->cluster).
  Bytes network_bytes = 0;
  /// Bytes that stayed on-host (rank->host).
  Bytes intra_bytes = 0;
  /// End-to-end leaf-to-root latency (levels are pipelined per flush but
  /// a fresh sample traverses all of them).
  TimeNs propagation_latency = 0;
  /// Sustained inter-host telemetry bandwidth implied by the flush
  /// interval, per host uplink (the contended resource).
  Bandwidth per_host_uplink = 0;
  /// per_host_uplink as a fraction of the host's training-usable NIC
  /// bandwidth — the observability-overhead knob the bench reports.
  double overhead_fraction = 0;
};

class AggregationTree {
 public:
  /// Throws std::invalid_argument unless ranks, ranks_per_host and
  /// hosts_per_pod are all > 0.
  explicit AggregationTree(const AggTreeConfig& cfg);

  int hosts() const { return hosts_; }
  int pods() const { return pods_; }

  /// Replaces rank's pending sketch (ranks re-snapshot every interval) and
  /// marks the rank's host/pod subtree dirty for the next flush. Throws
  /// std::invalid_argument for a rank outside [0, ranks).
  void submit(int rank, SketchSnapshot snapshot);

  /// Merges every level bottom-up, charges traffic and latency, and
  /// returns the accounting. The merged cluster snapshot is in root().
  ///
  /// Dirty-subtree short-circuit: every aggregator retains its children's
  /// last sketches, so a rank with no submit() since the previous flush
  /// ships nothing and costs no merge CPU — and a host/pod subtree with no
  /// dirty rank at all is skipped outright, its cached aggregate reused.
  /// A flush with nothing dirty charges zero bytes and leaves root()
  /// unchanged. The tree starts all-clean.
  FlushReport flush();

  /// Cluster-wide merged snapshot of the last flush.
  const SketchSnapshot& root() const { return root_; }

  /// Oracle: single-level merge of every leaf in rank order. flush() must
  /// agree with this (approx_same) — the tree must not lose or double-
  /// count any series.
  SketchSnapshot flat_merge() const;

  /// Cumulative network bytes across all flushes so far.
  Bytes network_bytes_total() const { return network_bytes_total_; }

 private:
  AggTreeConfig cfg_;
  collective::CollectiveModel model_;
  int hosts_ = 0;
  int pods_ = 0;
  std::vector<SketchSnapshot> leaves_;
  /// Dirty flags since the last flush (see flush() doc).
  std::vector<char> rank_dirty_;
  /// Retained per-host / per-pod aggregates, rebuilt only when dirty.
  std::vector<SketchSnapshot> host_cache_;
  std::vector<SketchSnapshot> pod_cache_;
  SketchSnapshot root_;
  Bytes network_bytes_total_ = 0;
};

}  // namespace ms::telemetry
