// RDMA flight recorder (MegaScale §5.3-style post-mortem capture).
//
// Aggregate metrics tell you *that* a step was slow; the flight recorder
// tells you what the fabric and the fault-tolerance layer were doing right
// before it happened. Each node owns a fixed-size ring of recent events
// (heartbeats, collective launches, retransmits, fault injections) —
// recording is O(1) with no allocation past warm-up, so it can stay on in
// production. When an anomaly fires (AnomalyDetector alarm, chaos oracle
// failure), trigger() freezes the rings into a Dump: the last N events per
// node, merged in time order, serializable to JSONL and loadable back by
// `msdiag flight` for timeline export.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "core/time.h"
#include "diag/timeline.h"

namespace ms::diag {

struct FlightEvent {
  TimeNs time = 0;
  int node = 0;
  std::string kind;    // "heartbeat", "alarm", "fault:linkflap", ...
  std::string detail;  // free-form `k=v` attributes
  std::uint64_t seq = 0;  // global record order (tie-break within one time)
};

/// One frozen capture: everything the rings held at trigger time.
struct FlightDump {
  std::string reason;
  TimeNs time = 0;
  std::vector<FlightEvent> events;  // sorted by (time, seq)
};

struct FlightRecorderConfig {
  /// Events retained per node; older entries are overwritten.
  std::size_t capacity_per_node = 256;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});

  /// O(1) append to the node's ring. Thread-safe.
  void record(int node, TimeNs time, std::string kind,
              std::string detail = "");

  /// Freezes the current ring contents into a Dump (also kept internally —
  /// see dumps()). The rings keep recording afterwards.
  FlightDump trigger(std::string reason, TimeNs now);

  /// Copy of every dump frozen so far. (Copies under the lock: returning a
  /// reference to mutex-guarded state would hand out unsynchronized access
  /// — the thread-safety analysis rejects it.)
  std::vector<FlightDump> dumps() const;
  std::uint64_t total_recorded() const;
  /// Events discarded because a ring wrapped.
  std::uint64_t total_dropped() const;

 private:
  struct Ring {
    std::vector<FlightEvent> slots;  // capacity_per_node once warm
    std::size_t next = 0;            // overwrite position
    std::uint64_t written = 0;
  };

  FlightRecorderConfig config_;
  mutable Mutex mu_;
  // index = node id (grown on demand)
  std::vector<Ring> rings_ MS_GUARDED_BY(mu_);
  std::vector<FlightDump> dumps_ MS_GUARDED_BY(mu_);
  std::uint64_t seq_ MS_GUARDED_BY(mu_) = 0;
};

/// JSONL serialization: a `flight-dump` header line, then one `flight-event`
/// line per event.
std::string flight_dump_jsonl(const FlightDump& dump);

/// Parses what flight_dump_jsonl produced: the header first, then as many
/// events as it declares. Any other input fails with `*error` naming the
/// line and field (see json::parse_lines).
bool parse_flight_dump_jsonl(const std::string& text, FlightDump& out,
                             std::string* error = nullptr);

/// Folds a dump onto the unified timeline (one lane per node, one short
/// span per event) so it exports through chrome_trace_json() to Perfetto.
TimelineTrace flight_dump_timeline(const FlightDump& dump);

}  // namespace ms::diag
