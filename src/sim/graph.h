// Dependency-graph executor on top of the event engine.
//
// Models a set of hardware queues ("streams", in the CUDA sense): each
// stream executes at most one operation at a time; an operation starts when
// all of its dependencies have finished and its stream is free. This is the
// substrate on which training iterations are simulated — compute kernels go
// on a compute stream, collectives on communication streams, and the overlap
// techniques of MegaScale §3.2 manifest as graph/stream structure.
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "core/time.h"
#include "sim/engine.h"

namespace ms::sim {

using OpId = std::int32_t;
using StreamId = std::int32_t;

constexpr OpId kInvalidOp = -1;

struct OpSpec {
  std::string name;
  StreamId stream = 0;
  TimeNs duration = 0;
  /// Higher priority ops are issued first when several are ready on the same
  /// stream (MegaScale launches high-priority communication first, §3.2).
  int priority = 0;
  /// Free-form tag for span analysis (e.g. "fwd", "bwd", "dp-comm").
  std::string tag;
  /// Structured attributes for dependency reconstruction, encoded as
  /// space-separated `k=v` tokens (e.g. "s=1 c=0 mb=2 p=f to=2"). Parsed by
  /// diag::DepGraph; opaque to the executor.
  std::string detail;
};

/// Execution record for one op — the raw material for the §5 diagnosis
/// tools (heat maps, timelines).
struct OpRecord {
  OpId id = kInvalidOp;
  std::string name;
  std::string tag;
  std::string detail;
  StreamId stream = 0;
  TimeNs start = -1;
  TimeNs end = -1;
  bool done() const { return end >= 0; }
};

class GraphExecutor {
 public:
  /// Any StreamId in [0, max_streams) is valid.
  explicit GraphExecutor(std::size_t max_streams = 64);

  /// Adds an op; its name, tag and detail move into its OpRecord. Throws
  /// std::invalid_argument for a stream outside [0, max_streams) and
  /// std::logic_error after run().
  OpId add_op(OpSpec spec);

  /// Declares that `after` cannot start before `before` has finished.
  /// Throws std::invalid_argument for an unknown op id or a self-edge and
  /// std::logic_error after run().
  void add_dep(OpId before, OpId after);

  /// Runs the whole graph to completion on `engine`. May be called once.
  /// Returns the makespan (time from engine.now() at call to last finish).
  TimeNs run(Engine& engine);

  const std::vector<OpRecord>& records() const { return records_; }
  const OpRecord& record(OpId id) const { return records_[static_cast<std::size_t>(id)]; }

  /// Total busy time per stream (for utilization analysis).
  TimeNs stream_busy(StreamId s) const { return streams_[static_cast<std::size_t>(s)].busy; }

 private:
  struct ReadyEntry {
    int priority;
    OpId id;
    // max-heap on priority, FIFO (min id) within a priority level
    bool operator<(const ReadyEntry& o) const {
      return priority != o.priority ? priority < o.priority : id > o.id;
    }
  };
  struct StreamState {
    bool busy_now = false;
    TimeNs busy = 0;
    std::priority_queue<ReadyEntry> ready;
  };

  void on_ready(Engine& engine, OpId id);
  void try_issue(Engine& engine, StreamId s);
  void on_op_finished(Engine& engine, OpId id);

  // Per op: the executor reads only these and records_[id].stream.
  std::vector<TimeNs> durations_;
  std::vector<int> priorities_;
  std::vector<OpRecord> records_;
  std::vector<std::vector<OpId>> dependents_;
  std::vector<int> indegree_;
  std::vector<StreamState> streams_;
  TimeNs start_time_ = 0;
  TimeNs finish_time_ = 0;
  std::size_t remaining_ = 0;
  bool ran_ = false;
};

}  // namespace ms::sim
