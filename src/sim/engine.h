// Discrete-event simulation engine.
//
// One binary min-heap of (time, id, slot) entries. Each slot indexes the
// callback the engine owns for that event; fired slots are reused through
// a free list, so heap operations move 24-byte entries, never callbacks.
// Ids are issued in schedule order and break ties, so events at the same
// timestamp execute FIFO and every run of a scenario is reproducible.
// Determinism is audited, not just promised: every executed event is
// folded into digest(), and the MS_AUDIT hooks check time monotonicity,
// FIFO ordering and id accounting as the run progresses (see
// check/audit.h).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "check/digest.h"
#include "core/time.h"

namespace ms::sim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  TimeNs now() const { return now_; }

  /// Schedules fn at absolute time t. Scheduling into the past is an
  /// audited invariant violation; the event is clamped to fire at now().
  void at(TimeNs t, std::function<void()> fn);

  /// Schedules fn after a relative delay (clamped to >= 0).
  void after(TimeNs delay, std::function<void()> fn);

  /// Runs until the queue is drained.
  void run();

  /// Runs events with time <= t, then advances now() to t (the clock
  /// never moves backwards).
  void run_until(TimeNs t);

  /// Number of events executed so far.
  std::uint64_t executed() const { return executed_; }

  /// High-water mark of the number of queued events since construction.
  std::size_t peak_queue_size() const { return peak_queue_size_; }

  /// Order-sensitive digest over every executed (event id, timestamp)
  /// pair. Two runs of the same deterministic scenario produce identical
  /// digests; see check/digest.h.
  std::uint64_t digest() const { return digest_.value(); }

 private:
  struct Entry {
    TimeNs t = 0;
    std::uint64_t id = 0;    // issued in schedule order; the FIFO tiebreaker
    std::uint32_t slot = 0;  // index into callbacks_
  };

  /// Heap order for std::push_heap/pop_heap: the front is the earliest
  /// (t, id).
  static bool later(const Entry& a, const Entry& b) {
    return a.t != b.t ? a.t > b.t : a.id > b.id;
  }

  /// Pops the earliest entry into `out` if it is due at or before `limit`.
  bool pop_due(TimeNs limit, Entry& out);
  /// Audits ordering invariants, folds the digest, runs the callback.
  void fire(const Entry& e);

  TimeNs now_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t peak_queue_size_ = 0;
  TimeNs last_fired_t_ = -1;
  std::uint64_t last_fired_id_ = 0;
  check::Digest digest_;
  std::vector<Entry> heap_;
  std::vector<std::function<void()>> callbacks_;  // indexed by Entry::slot
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace ms::sim
