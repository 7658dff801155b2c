// Fabric observatory: per-link network telemetry and flow path tracing
// (MegaScale §3.6 "network monitoring", §5 "in-depth observability").
//
// The paper attributes much of its tuning and incident response to
// fabric-level visibility — per-port PFC pause and ECN counters at
// millisecond granularity, plus tooling that localizes a congestion event
// to a specific link. This module is that visibility layer for the
// simulators: every simulated link / NIC / switch queue registers here and
// the models (the fluid PFC chain, flowsim, ecmp analysis) feed their
// per-step state through the record_* hooks into ring-buffered LinkSeries.
// Flows additionally register their ECMP hop list so each link's traffic
// is attributable to the flows that crossed it (path recording).
//
// The observatory is strictly passive: it never feeds state back into a
// simulator, so engine/sim determinism digests are bit-identical with the
// observatory attached or absent (pinned by tests/fabric_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/digest.h"
#include "core/time.h"
#include "core/units.h"
#include "diag/heatmap.h"
#include "net/fabric/series.h"
#include "net/topology.h"
#include "telemetry/sketch.h"

namespace ms::diag {
class FlightRecorder;
}  // namespace ms::diag

namespace ms::net::fabric {

struct FabricObservatoryConfig {
  /// Sample bucket width in simulated time (§5: millisecond granularity).
  TimeNs cadence = milliseconds(1.0);
  /// Buckets retained per link; older buckets are evicted (and counted).
  std::size_t ring_capacity = 512;
  /// Flow path records retained; extra registrations are counted, not kept.
  std::size_t max_flow_records = 4096;
  /// Optional flight recorder (not owned): detector alarms are recorded
  /// into its rings and freeze a post-mortem dump (see fabric/detectors.h).
  diag::FlightRecorder* flight = nullptr;
};

/// One flow's recorded path: the ECMP hop list plus total attributed bytes.
struct FlowPathRecord {
  std::uint64_t label = 0;     ///< caller-chosen id (ECMP 5-tuple hash, ...)
  std::vector<int> links;      ///< observatory link indices, in hop order
  double bytes = 0;            ///< bytes attributed across the path so far
};

class FabricObservatory {
 public:
  explicit FabricObservatory(FabricObservatoryConfig cfg = {});

  const FabricObservatoryConfig& config() const { return cfg_; }

  // ---- link registration ----------------------------------------------
  /// Registers a link under a stable name; re-registering an existing name
  /// returns the existing index (simulators may re-run over one
  /// observatory). Capacity 0 means unknown (utilization reads as 0).
  int add_link(const std::string& name, Bandwidth capacity);
  /// Registers every link of a Clos fabric as "<src>-><dst>". On an empty
  /// observatory the observatory index equals the topology LinkId, which
  /// is what FlowSim and the ECMP recorder rely on.
  void attach_topology(const ClosTopology& topo);

  int link_count() const { return static_cast<int>(series_.size()); }
  const std::string& link_name(int link) const;
  Bandwidth link_capacity(int link) const;
  /// Index for a registered name; -1 when absent.
  int find_link(const std::string& name) const;

  // ---- sampling hooks (passive; no feedback into the simulators) ------
  void record_tx(int link, TimeNs at, double bytes);
  void record_queue(int link, TimeNs at, double queue_bytes);
  void record_ecn(int link, TimeNs at, double marks);
  void record_pause(int link, TimeNs at, TimeNs paused_for, int events = 0);
  void record_active_flows(int link, TimeNs at, int flows);

  // ---- flow path recording --------------------------------------------
  /// Registers a flow's hop list; returns a dense flow index, or -1 when
  /// the record budget is exhausted (counted in flow_records_dropped()).
  int record_flow_path(std::uint64_t label, const std::vector<int>& links);
  /// Adds `bytes` to every link on the flow's path and to the flow ledger.
  /// A -1 flow index (dropped record) is ignored — callers that still want
  /// per-link accounting should record_tx the hops directly.
  void attribute_flow_bytes(int flow, TimeNs at, double bytes);

  const std::vector<FlowPathRecord>& flows() const { return flows_; }
  std::uint64_t flow_records_dropped() const { return flow_records_dropped_; }

  // ---- views / exports ------------------------------------------------
  const LinkSeries& series(int link) const;
  std::vector<LinkSample> samples(int link) const;
  /// tx bytes of one bucket as a fraction of capacity x cadence (0 when
  /// the link capacity is unknown).
  double utilization(int link, const LinkSample& sample) const;

  /// Order-sensitive determinism digest over every link series, flow
  /// record and eviction counter. Same seed => same digest (pinned by
  /// tests/fabric_test.cpp).
  std::uint64_t digest() const;

  /// Mergeable sketch export: per-link tx/ECN/pause counters plus
  /// utilization and queue-peak gauges, keyed fabric_*{link=<name>}. This
  /// is what ships through the telemetry aggregation tree so fabric
  /// sampling is charged against the <1% observability-overhead gate.
  telemetry::SketchSnapshot sketch() const;

  /// JSONL artifact: one "fabric-link" header per link then one
  /// "fabric-sample" line per retained bucket, ordered by link then time;
  /// "fabric-flow" lines carry the path records.
  std::string jsonl() const;

  /// Links x {util,queue,pause} rendering via the §5.1 heatmap machinery.
  diag::PerformanceHeatmap heatmap() const;

 private:
  FabricObservatoryConfig cfg_;
  std::vector<LinkSeries> series_;
  std::vector<std::string> names_;
  std::vector<Bandwidth> capacities_;
  std::map<std::string, int> by_name_;  // ordered: exports iterate stably
  std::vector<FlowPathRecord> flows_;
  std::uint64_t flow_records_dropped_ = 0;
};

}  // namespace ms::net::fabric
