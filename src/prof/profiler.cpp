#include "prof/profiler.h"

#include <algorithm>
#include <bit>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace ms::prof {
namespace internal {
namespace {

// Bounded per-thread self-trace ring: enough for phase-level scopes plus a
// generous slice of per-event records; overflow counts as `dropped` so the
// exporter can say so instead of silently truncating.
constexpr std::size_t kMaxTraceEventsPerThread = 1u << 20;

// Duration -> histogram bucket. 0..3 ns map exactly; above that, 4
// sub-buckets per power of two: bucket = 4 + (msb-2)*4 + (2 bits below the
// msb). Max msb for u64 is 63 -> bucket 251 < kHistBuckets.
std::size_t hist_bucket(std::uint64_t ns) {
  if (ns < 4) return static_cast<std::size_t>(ns);
  const int msb = 63 - std::countl_zero(ns);
  const std::uint64_t sub = (ns >> (msb - 2)) & 3u;
  return 4 + static_cast<std::size_t>(msb - 2) * 4 +
         static_cast<std::size_t>(sub);
}

// Inverse: representative (midpoint) duration for a bucket, used when
// re-bucketing into the coarser HdrHistogram (same bucket boundaries,
// sparse storage) on snapshot.
double hist_bucket_mid(std::size_t b) {
  if (b < 4) return static_cast<double>(b);
  const std::size_t g = (b - 4) / 4;
  const std::size_t sub = (b - 4) % 4;
  const double lo = static_cast<double>((4 + sub) << g);  // (4+sub) * 2^g
  const double width = static_cast<double>(std::size_t{1} << g);
  return lo + width / 2.0;
}

}  // namespace

// Plain (non-atomic) mirror of a Cell, used for the retired-thread
// accumulator and for snapshot merging.
struct CellSums {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t child_ns = 0;
  std::uint64_t min_ns = ~0ull;
  std::uint64_t max_ns = 0;
  std::array<std::uint64_t, kHistBuckets> hist{};

  void accumulate(const Cell& cell) {
    count += cell.count.load(std::memory_order_relaxed);
    total_ns += cell.total_ns.load(std::memory_order_relaxed);
    child_ns += cell.child_ns.load(std::memory_order_relaxed);
    min_ns = std::min(min_ns, cell.min_ns.load(std::memory_order_relaxed));
    max_ns = std::max(max_ns, cell.max_ns.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      hist[b] += cell.hist[b].load(std::memory_order_relaxed);
    }
  }
};

void Cell::record(std::uint64_t dur_ns) {
  count.fetch_add(1, std::memory_order_relaxed);
  total_ns.fetch_add(dur_ns, std::memory_order_relaxed);
  std::uint64_t cur = min_ns.load(std::memory_order_relaxed);
  while (dur_ns < cur &&
         !min_ns.compare_exchange_weak(cur, dur_ns,
                                       std::memory_order_relaxed)) {
  }
  cur = max_ns.load(std::memory_order_relaxed);
  while (dur_ns > cur &&
         !max_ns.compare_exchange_weak(cur, dur_ns,
                                       std::memory_order_relaxed)) {
  }
  hist[hist_bucket(dur_ns)].fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread profiler state. Cells are lazily allocated (most threads
/// touch a handful of the kMaxScopes slots); the open-scope stack is
/// owner-thread-only; the trace ring is the one mutex-guarded piece
/// because the snapshot thread drains it.
struct ThreadState {
  std::array<std::atomic<Cell*>, kMaxScopes> cells{};
  std::vector<Cell*> open_stack;  // owner thread only (self-time tracking)
  std::uint32_t tid = 0;

  Mutex trace_mu;
  std::vector<TraceEvent> trace MS_GUARDED_BY(trace_mu);
  std::uint64_t trace_dropped MS_GUARDED_BY(trace_mu) = 0;

  ~ThreadState();
};

namespace {

/// Process-wide profiler registry. Deliberately leaked (never destroyed):
/// thread_local ThreadState destructors may run during shutdown after
/// static destructors would have fired, and a reachable singleton is not a
/// leak to LeakSanitizer.
class Profiler {
 public:
  static Profiler& instance() {
    static Profiler* p = new Profiler;  // leaked by design, see above
    return *p;
  }

  ScopeId register_scope(const char* name) {
    MutexLock lock(mu_);
    const std::string key(name);
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == key) return static_cast<ScopeId>(i + 1);
    }
    if (names_.size() >= kMaxScopes) return kInvalidScope;
    names_.push_back(key);
    return static_cast<ScopeId>(names_.size());
  }

  std::string scope_name(ScopeId id) {
    MutexLock lock(mu_);
    if (id == kInvalidScope || id > names_.size()) return "";
    return names_[id - 1];
  }

  void adopt(ThreadState* t) {
    MutexLock lock(mu_);
    t->tid = next_tid_++;
    threads_.push_back(t);
  }

  void retire(ThreadState* t) {
    MutexLock lock(mu_);
    fold_cells_locked(*t, retired_);
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      if (threads_[i] == t) {
        threads_.erase(threads_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    // Trace records from finished threads survive until drained.
    {
      MutexLock trace_lock(t->trace_mu);
      retired_trace_.insert(retired_trace_.end(), t->trace.begin(),
                            t->trace.end());
      retired_trace_dropped_ += t->trace_dropped;
    }
    for (auto& slot : t->cells) {
      delete slot.load(std::memory_order_relaxed);
    }
  }

  std::vector<ScopeSnapshot> snapshot() {
    MutexLock lock(mu_);
    std::vector<CellSums> sums(names_.size());
    for (std::size_t s = 0; s < names_.size(); ++s) {
      sums[s] = retired_.size() > s ? retired_[s] : CellSums{};
    }
    for (ThreadState* t : threads_) {
      for (std::size_t s = 0; s < names_.size(); ++s) {
        const Cell* cell = t->cells[s + 1].load(std::memory_order_acquire);
        if (cell != nullptr) sums[s].accumulate(*cell);
      }
    }
    std::vector<ScopeSnapshot> out;
    for (std::size_t s = 0; s < names_.size(); ++s) {
      const CellSums& c = sums[s];
      if (c.count == 0) continue;
      ScopeSnapshot snap;
      snap.name = names_[s];
      snap.count = c.count;
      snap.total_ns = c.total_ns;
      snap.self_ns = c.total_ns > c.child_ns ? c.total_ns - c.child_ns : 0;
      snap.min_ns = c.min_ns == ~0ull ? 0 : c.min_ns;
      snap.max_ns = c.max_ns;
      for (std::size_t b = 0; b < kHistBuckets; ++b) {
        if (c.hist[b] != 0) snap.hist_ns.add(hist_bucket_mid(b), c.hist[b]);
      }
      out.push_back(std::move(snap));
    }
    return out;
  }

  std::vector<TraceEvent> drain_trace(std::uint64_t* dropped) {
    MutexLock lock(mu_);
    std::vector<TraceEvent> out = std::move(retired_trace_);
    retired_trace_.clear();
    std::uint64_t lost = retired_trace_dropped_;
    retired_trace_dropped_ = 0;
    for (ThreadState* t : threads_) {
      MutexLock trace_lock(t->trace_mu);
      out.insert(out.end(), t->trace.begin(), t->trace.end());
      t->trace.clear();
      lost += t->trace_dropped;
      t->trace_dropped = 0;
    }
    if (dropped != nullptr) *dropped = lost;
    return out;
  }

  void reset() {
    MutexLock lock(mu_);
    retired_.clear();
    retired_trace_.clear();
    retired_trace_dropped_ = 0;
    for (ThreadState* t : threads_) {
      for (std::size_t s = 1; s <= names_.size(); ++s) {
        Cell* cell = t->cells[s].load(std::memory_order_relaxed);
        if (cell == nullptr) continue;
        cell->count.store(0, std::memory_order_relaxed);
        cell->total_ns.store(0, std::memory_order_relaxed);
        cell->child_ns.store(0, std::memory_order_relaxed);
        cell->min_ns.store(~0ull, std::memory_order_relaxed);
        cell->max_ns.store(0, std::memory_order_relaxed);
        for (auto& b : cell->hist) b.store(0, std::memory_order_relaxed);
      }
      MutexLock trace_lock(t->trace_mu);
      t->trace.clear();
      t->trace_dropped = 0;
    }
  }

  void append_trace(ThreadState& t, const TraceEvent& ev) {
    MutexLock trace_lock(t.trace_mu);
    if (t.trace.size() >= kMaxTraceEventsPerThread) {
      ++t.trace_dropped;
      return;
    }
    t.trace.push_back(ev);
  }

 private:
  void fold_cells_locked(ThreadState& t, std::vector<CellSums>& into)
      MS_REQUIRES(mu_) {
    if (into.size() < names_.size()) into.resize(names_.size());
    for (std::size_t s = 0; s < names_.size(); ++s) {
      const Cell* cell = t.cells[s + 1].load(std::memory_order_acquire);
      if (cell != nullptr) into[s].accumulate(*cell);
    }
  }

  Mutex mu_;
  std::vector<std::string> names_ MS_GUARDED_BY(mu_);  // index = id - 1
  std::vector<ThreadState*> threads_ MS_GUARDED_BY(mu_);
  std::vector<CellSums> retired_ MS_GUARDED_BY(mu_);
  std::vector<TraceEvent> retired_trace_ MS_GUARDED_BY(mu_);
  std::uint64_t retired_trace_dropped_ MS_GUARDED_BY(mu_) = 0;
  std::uint32_t next_tid_ MS_GUARDED_BY(mu_) = 0;
};

}  // namespace

ThreadState::~ThreadState() { Profiler::instance().retire(this); }

ThreadState& tls() {
  thread_local ThreadState state;
  thread_local bool adopted = false;
  if (!adopted) {
    Profiler::instance().adopt(&state);
    adopted = true;
  }
  return state;
}

Cell* cell_for(ThreadState& t, ScopeId id) {
  if (id == kInvalidScope || id >= kMaxScopes) return nullptr;
  Cell* cell = t.cells[id].load(std::memory_order_acquire);
  if (cell == nullptr) {
    cell = new Cell;
    // Release so the snapshot thread's acquire load sees a constructed
    // Cell. Only the owner thread stores, so no CAS race to handle.
    t.cells[id].store(cell, std::memory_order_release);
  }
  return cell;
}

void scope_opened(ThreadState& t, Cell* cell) {
  t.open_stack.push_back(cell);
}

void scope_closed(ThreadState& t, Cell* cell, ScopeId id, WallNs start,
                  std::uint64_t dur_ns) {
  t.open_stack.pop_back();
  cell->record(dur_ns);
  if (!t.open_stack.empty()) {
    t.open_stack.back()->child_ns.fetch_add(dur_ns,
                                            std::memory_order_relaxed);
  }
  if (tracing()) {
    Profiler::instance().append_trace(
        t, TraceEvent{id, start, static_cast<WallNs>(dur_ns), t.tid});
  }
}

}  // namespace internal

void set_enabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

void set_tracing(bool on) {
  internal::g_tracing.store(on, std::memory_order_relaxed);
}

ScopeId register_scope(const char* name) {
  return internal::Profiler::instance().register_scope(name);
}

std::string scope_name(ScopeId id) {
  return internal::Profiler::instance().scope_name(id);
}

std::vector<ScopeSnapshot> snapshot() {
  return internal::Profiler::instance().snapshot();
}

std::vector<TraceEvent> drain_trace(std::uint64_t* dropped) {
  return internal::Profiler::instance().drain_trace(dropped);
}

void reset() { internal::Profiler::instance().reset(); }

}  // namespace ms::prof
