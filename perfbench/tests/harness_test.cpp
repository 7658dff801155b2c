// Tests of the benchmark's own statistics and task generation.
//
//   cmake --build <dir> --target perfbench_test && <dir>/perfbench_test
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "../src/harness.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void tail_leaves_ten_samples_beyond() {
  expect(!perfbench::tail(ramp(10)).has_value(), "10 samples have no tail");
  const auto t11 = perfbench::tail(ramp(11));
  expect(t11 && t11->value == 1.0, "11 samples: tail is the minimum");
  const auto t100 = perfbench::tail(ramp(100));
  expect(t100 && t100->value == 90.0 && t100->percentile == 90.0,
         "100 samples: tail is p90, value 90");
  const auto t125 = perfbench::tail(ramp(125));
  expect(t125 && t125->value == 115.0 && t125->percentile == 92.0,
         "125 samples: tail is p92, value 115");
  expect(perfbench::median(ramp(4)) == 2.5, "even median averages the middle");
}

// Task i: 0 passes, 1 is refused (check false), 2 crashes in run(),
// 3 crashes in check().
class Scripted : public perfbench::Workload {
 public:
  std::vector<std::string> task_list() const override { return {"a", "b", "c", "d"}; }
  void setup(perfbench::Spans*) override {}
  void run(int i, perfbench::Spans*) override {
    if (i == 2) throw std::runtime_error("crash in run");
  }
  bool check(int i, std::uint64_t& digest) override {
    digest = static_cast<std::uint64_t>(i);
    if (i == 3) throw std::runtime_error("crash in check");
    return i == 0;
  }
};

void ok_frac_counts_refused_and_crashed_as_failures() {
  Scripted w;
  std::vector<perfbench::TaskRecord> recs;
  for (int i = 0; i < 4; ++i) recs.push_back(perfbench::execute(w, i, nullptr));
  expect(recs[0].passed && !recs[0].crashed, "task 0 passes");
  expect(!recs[1].passed && !recs[1].crashed, "refused task fails");
  expect(!recs[2].passed && recs[2].crashed, "crash in run fails");
  expect(!recs[3].passed && recs[3].crashed, "crash in check fails");
  expect(perfbench::ok_frac(recs) == 0.25, "ok_frac = 1 passed / 4 attempted");
  expect(perfbench::ok_frac({}) == 0.0, "nothing attempted is not ok");
}

void equal_seeds_give_equal_task_lists() {
  for (const auto& info : perfbench::workloads()) {
    const int n = perfbench::task_count(info, 10.0);
    expect(n % info.kinds == 0 && n >= 21, "task count is whole rounds");
    const auto a = info.make(7, n)->task_list();
    const auto b = info.make(7, n)->task_list();
    const auto c = info.make(8, n)->task_list();
    const std::string name = info.name;
    expect(a.size() == static_cast<std::size_t>(n), (name + ": list size").c_str());
    expect(a == b, (name + ": equal seeds, equal lists").c_str());
    expect(a != c, (name + ": other seed, other list").c_str());
    expect(std::set<std::string>(a.begin(), a.end()).size() == a.size(),
           (name + ": no task repeats").c_str());
  }
}

// plan_search tasks on the same cluster and batch differ only in their
// fabric efficiency; that input must reach the planner's output, or the
// queries repeat in substance and a cache of whole results could fake a
// gain. Uses the cheapest point (13B on 256 GPUs).
void plan_search_inputs_reach_the_output() {
  const auto* info = perfbench::find_workload("plan_search");
  expect(info != nullptr, "plan_search exists");
  if (info == nullptr) return;
  auto w = info->make(7, perfbench::task_count(*info, 10.0));
  const auto list = w->task_list();
  std::vector<int> same_point;
  for (std::size_t i = 0; i < list.size() && same_point.size() < 2; ++i) {
    if (list[i].rfind("cap-13b ", 0) == 0 &&
        list[i].find(" gpus=256 ") != std::string::npos) {
      same_point.push_back(static_cast<int>(i));
    }
  }
  expect(same_point.size() == 2, "plan_search: two queries at one point");
  if (same_point.size() != 2) return;
  std::uint64_t digest[2] = {};
  for (int k = 0; k < 2; ++k) {
    const auto rec = perfbench::execute(*w, same_point[static_cast<std::size_t>(k)],
                                        nullptr);
    expect(rec.passed, "plan_search: query passes its oracle");
    digest[k] = rec.digest;
  }
  expect(digest[0] != digest[1],
         "plan_search: queries at one point give different reports");
}

}  // namespace

int main() {
  tail_leaves_ten_samples_beyond();
  ok_frac_counts_refused_and_crashed_as_failures();
  equal_seeds_give_equal_task_lists();
  plan_search_inputs_reach_the_output();
  if (failures == 0) std::printf("perfbench_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
