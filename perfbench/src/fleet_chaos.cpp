// fleet_chaos: one seeded chaos scenario per task on a 64-node, 4-spare,
// 6 h fleet, cycling through all seven scenarios, called per seed with no
// campaign fan-out.
//
// Why this shape: the ft driver sim's heartbeat program on sim::Engine does
// most of each task (long heartbeat chains under run_until). At the CLI
// default (16 nodes, 2 h) a clean run is too short to time and pfc-storm's
// ccsim would dominate the workload.
#include <cstdio>
#include <string>

#include "chaos/campaign.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "core/rng.h"
#include "harness.h"

namespace perfbench {
namespace {

struct Task {
  const ms::chaos::Scenario* scenario = nullptr;
  std::uint64_t seed = 0;
};

class FleetChaos : public Workload {
 public:
  FleetChaos(std::uint64_t seed, int tasks) {
    cfg_.nodes = 64;
    cfg_.spares = 4;
    cfg_.duration = ms::hours(6.0);
    const auto& all = ms::chaos::scenarios();
    ms::Rng rng(ms::derive_seed(seed, "perfbench.fleet_chaos"));
    std::vector<std::size_t> order(all.size());
    for (int i = 0; i < tasks; ++i) {
      const std::size_t slot = static_cast<std::size_t>(i) % all.size();
      if (slot == 0) {
        for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
        rng.shuffle(order);
      }
      Task t;
      t.scenario = &all[order[slot]];
      t.seed = rng.next_u64();
      tasks_.push_back(t);
    }
  }

  std::vector<std::string> task_list() const override {
    std::vector<std::string> out;
    char buf[96];
    for (const Task& t : tasks_) {
      std::snprintf(buf, sizeof(buf), "%s seed=0x%016llx", t.scenario->name,
                    static_cast<unsigned long long>(t.seed));
      out.emplace_back(buf);
    }
    return out;
  }

  void setup(Spans* spans) override {
    (void)spans;
    ms::chaos::reference_step_time();
    // Warm-up: one untimed run of every scenario.
    for (const auto& scenario : ms::chaos::scenarios()) {
      ms::chaos::run_scenario(cfg_, scenario, ~tasks_.front().seed);
    }
  }

  void run(int i, Spans* spans) override {
    const Task& t = tasks_[static_cast<std::size_t>(i)];
    ms::chaos::FaultSchedule schedule;
    {
      Span span(spans, "chaos.generate_schedule");
      schedule = ms::chaos::generate_schedule(cfg_, *t.scenario, t.seed);
    }
    {
      Span span(spans, std::string("chaos.run_schedule.") + t.scenario->name);
      record_ = ms::chaos::run_schedule(cfg_, t.scenario->name, t.seed,
                                        schedule);
    }
    if (spans == nullptr) return;
    spans->add_count("chaos.faults", record_.faults_injected);
    spans->add_count("ft.restarts", record_.restarts);
    spans->add_count("ft.undetected_faults", record_.undetected_faults);
    spans->add_count("ft.spare_pool_exhausted", record_.spare_pool_exhausted);
    spans->add_count("net.fabric.localizations", record_.fabric_localizations);
    spans->add_count("net.fabric.top1_correct", record_.fabric_top1_correct);
  }

  bool check(int i, std::uint64_t& digest) override {
    (void)i;
    digest = record_.record_digest;
    return ms::chaos::evaluate_outcome(cfg_, record_).pass;
  }

  std::map<std::string, double> finish(Spans* spans) override {
    if (spans != nullptr) {
      const double graded = spans->count("net.fabric.localizations");
      spans->set("net.fabric.top1_frac",
                 graded > 0 ? spans->count("net.fabric.top1_correct") / graded
                            : 0.0);
    }
    return {};
  }

 private:
  ms::chaos::ChaosConfig cfg_;
  std::vector<Task> tasks_;
  ms::chaos::OutcomeRecord record_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_chaos(std::uint64_t seed, int tasks) {
  return std::make_unique<FleetChaos>(seed, tasks);
}

}  // namespace perfbench
