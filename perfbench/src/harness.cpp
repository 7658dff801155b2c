#include "harness.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

namespace perfbench {

std::unique_ptr<Workload> make_plan_search(std::uint64_t seed, int tasks);
std::unique_ptr<Workload> make_fleet_replay(std::uint64_t seed, int tasks);
std::unique_ptr<Workload> make_fleet_chaos(std::uint64_t seed, int tasks);
std::unique_ptr<Workload> make_convergence(std::uint64_t seed, int tasks);
std::unique_ptr<Workload> make_diagnose(std::uint64_t seed, int tasks);

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Spans::add_span(const std::string& name, double seconds,
                     bool covers_task) {
  Layer& layer = layers_[name];
  ++layer.calls;
  layer.busy_s += seconds;
  if (covers_task) covered_s_ += seconds;
}

double Spans::count(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

Span::Span(Spans* spans, std::string name)
    : spans_(spans), name_(std::move(name)) {
  if (spans_ == nullptr) return;
  outermost_ = spans_->depth_++ == 0;
  t0_ = Clock::now();
}

Span::~Span() {
  if (spans_ == nullptr) return;
  const double s = seconds_since(t0_);
  --spans_->depth_;
  spans_->add_span(name_, s, outermost_ && spans_->in_task_);
}

std::uint64_t Workload::rerun_first() {
  run(0, nullptr);
  std::uint64_t digest = 0;
  check(0, digest);
  return digest;
}

const std::vector<WorkloadInfo>& workloads() {
  // Nominal task times were measured on a 4-vCPU x86 host with the default
  // RelWithDebInfo build; they only size the fixed task count.
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"plan_search", 5, 0.125, make_plan_search},
      {"fleet_replay", 1, 0.300, make_fleet_replay},
      {"fleet_chaos", 7, 0.042, make_fleet_chaos},
      {"convergence", 1, 0.100, make_convergence},
      {"diagnose", 2, 0.170, make_diagnose},
  };
  return kWorkloads;
}

const WorkloadInfo* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int task_count(const WorkloadInfo& info, double seconds) {
  constexpr int kMinTasks = 21;  // median plus 10 beyond the tail
  const int wanted = std::max(
      kMinTasks, static_cast<int>(std::ceil(seconds / info.nominal_task_s)));
  return (wanted + info.kinds - 1) / info.kinds * info.kinds;
}

TaskRecord execute(Workload& w, int i, Spans* spans) {
  TaskRecord rec;
  try {
    if (spans != nullptr) spans->set_in_task(true);
    const auto t0 = Clock::now();
    w.run(i, spans);
    rec.seconds = seconds_since(t0);
    if (spans != nullptr) spans->set_in_task(false);
    rec.passed = w.check(i, rec.digest);
    if (spans != nullptr) w.traced_extra(i, spans);
  } catch (const std::exception&) {
    rec.crashed = true;
    rec.passed = false;
  }
  if (spans != nullptr) spans->set_in_task(false);
  return rec;
}

double ok_frac(const std::vector<TaskRecord>& records) {
  if (records.empty()) return 0.0;
  const auto passed = std::count_if(records.begin(), records.end(),
                                    [](const TaskRecord& r) { return r.passed; });
  return static_cast<double>(passed) / static_cast<double>(records.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<Tail> tail(std::vector<double> v, int beyond) {
  const auto n = static_cast<int>(v.size());
  if (beyond < 0 || n < beyond + 1) return std::nullopt;
  std::sort(v.begin(), v.end());
  Tail t;
  t.value = v[static_cast<std::size_t>(n - beyond - 1)];
  t.percentile = 100.0 * static_cast<double>(n - beyond) / n;
  return t;
}

}  // namespace perfbench
