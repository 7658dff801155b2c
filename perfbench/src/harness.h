// perfbench harness: the fixed-work task loop every workload runs under.
//
// A workload is a seeded list of tasks, each one closed-loop call sequence
// into the simulator's public API (one process, one thread, one task in
// flight). The harness times each task, runs the workload's oracle outside
// the timed span, re-runs the first task to prove determinism, and turns
// the per-task wall times into the end-to-end metrics. In the traced run
// the workloads also record wall-clock spans around each public call; those
// spans live here, in the benchmark, not inside the simulator.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Per-layer accounting of the traced run: for every span name, the call
/// count and busy seconds; plus counts and gauges read off public results.
class Spans {
 public:
  struct Layer {
    std::int64_t calls = 0;
    double busy_s = 0;
  };

  void add_span(const std::string& name, double seconds, bool covers_task);
  /// Sums `value` into the count `name` (work done: faults, tokens, ...).
  void add_count(const std::string& name, double value) {
    counts_[name] += value;
  }
  /// Overwrites the gauge `name` (sizes and fractions).
  void set(const std::string& name, double value) { counts_[name] = value; }
  double count(const std::string& name) const;

  /// Marks whether a task is running: outermost spans inside a task count
  /// toward coverage; spans in set-up or in extra traced-only calls do not.
  void set_in_task(bool in_task) { in_task_ = in_task; }

  const std::map<std::string, Layer>& layers() const { return layers_; }
  const std::map<std::string, double>& counts() const { return counts_; }
  /// Busy seconds of outermost spans opened while a task ran.
  double covered_s() const { return covered_s_; }

 private:
  friend class Span;
  std::map<std::string, Layer> layers_;
  std::map<std::string, double> counts_;
  double covered_s_ = 0;
  int depth_ = 0;
  bool in_task_ = false;
};

/// RAII wall-clock span around one public call; free when `spans` is null
/// (the untraced run).
class Span {
 public:
  Span(Spans* spans, std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans* spans_;
  std::string name_;
  Clock::time_point t0_;
  bool outermost_ = false;
};

/// One workload: a seeded, fixed list of tasks over the simulator's API.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One line per task, naming its generated inputs. Equal seeds must give
  /// equal lists; no query may repeat within a list.
  virtual std::vector<std::string> task_list() const = 0;
  /// Untimed: lazy caches and one warm-up task of every kind.
  virtual void setup(Spans* spans) = 0;
  /// Timed: task `i`'s public calls and nothing else.
  virtual void run(int i, Spans* spans) = 0;
  /// Untimed: the oracle on the output run(i) just produced. Sets `digest`
  /// to the task's output digest; returns false when the output is wrong
  /// or the input was refused.
  virtual bool check(int i, std::uint64_t& digest) = 0;
  /// Traced run only, untimed, after check(i): extra calls that split a
  /// task's time by layer (e.g. the same query without its DES stage).
  virtual void traced_extra(int i, Spans* spans) {
    (void)i;
    (void)spans;
  }
  /// Untimed: runs task 0's inputs again from a fresh start and returns
  /// the output digest (the determinism check).
  virtual std::uint64_t rerun_first();
  /// Untimed, after every task: workload-specific results printed beside
  /// the metrics (e.g. convergence's held-out loss).
  virtual std::map<std::string, double> finish(Spans* spans) {
    (void)spans;
    return {};
  }
};

struct WorkloadInfo {
  const char* name;
  /// Task kinds the list cycles through in equal numbers.
  int kinds;
  /// Nominal seconds per task: sizes the fixed task count for a run length.
  double nominal_task_s;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, int tasks);
};

const std::vector<WorkloadInfo>& workloads();
const WorkloadInfo* find_workload(const std::string& name);

/// Fixed task count for a run of about `seconds`: a multiple of the kind
/// count, and never fewer than leave 10 tasks beyond the median.
int task_count(const WorkloadInfo& info, double seconds);

/// Outcome of one task as the harness saw it.
struct TaskRecord {
  double seconds = 0;  ///< wall time of run() alone
  bool passed = false;
  bool crashed = false;  ///< run() or check() threw
  std::uint64_t digest = 0;
};

/// Runs task `i`: times run(), then checks outside the timed span. A throw
/// from either is a crashed task; a refused input or a failed oracle is a
/// failed one. Neither counts as passed.
TaskRecord execute(Workload& w, int i, Spans* spans);

/// ok_frac: passed tasks / attempted tasks.
double ok_frac(const std::vector<TaskRecord>& records);

double median(std::vector<double> v);

/// Tail rule: the highest order statistic with at least `beyond` samples
/// above it, and the percentile it sits at.
struct Tail {
  double value = 0;
  double percentile = 0;
};
std::optional<Tail> tail(std::vector<double> v, int beyond = 10);

}  // namespace perfbench
