// plan_search: one plan::search query per task (top-K 8, DES-validated).
//
// Why: DES validation under engine::simulate_iteration is nearly all of a
// search, so this workload puts the engine and sim layers in charge of the
// wall time; the fabric-efficiency derivation (net) lands in set-up. The
// mix covers the three Table-2 specs and two capacity-planning specs. No
// query repeats within a run: tasks share sub-work as real queries do (the
// fabric cache per GPU count), but a cache of whole results cannot fake a
// gain.
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "core/rng.h"
#include "engine/job.h"
#include "harness.h"
#include "plan/planner.h"

namespace perfbench {
namespace {

struct Point {
  int gpus;
  int batch;
};

struct Kind {
  const char* name;
  bool big;         ///< 175B (PTB + SWA, as in Table 2) rather than 13B
  int point_count;  ///< cluster/batch points the kind cycles through
  Point points[3];
};

// Batches are ones whose layouts keep the microbatch count per replica
// realistic; odd batches force tiny DP and multi-second searches.
constexpr Kind kKinds[] = {
    {"table2-3072", true, 1, {{3072, 6144}}},
    {"table2-6144", true, 1, {{6144, 6144}}},
    {"table2-12288", true, 1, {{12288, 6144}}},
    {"cap-13b", false, 3, {{256, 512}, {512, 1024}, {1024, 1024}}},
    {"cap-175b-1024", true, 1, {{1024, 1536}}},
};
constexpr int kKindCount = sizeof(kKinds) / sizeof(kKinds[0]);

// Every query prices the fabric at its own share of the derived efficiency
// for its GPU count, spread evenly by the seed over (1 - kNetJitter, 1], so
// no query repeats within a run while each run keeps the same cost mix. The
// planner's analytic stage, every simulated collective and the report
// digest all read it.
constexpr double kNetJitter = 0.02;

struct Query {
  int kind = 0;
  int gpus = 0;
  int batch = 0;
  double net_scale = 1.0;
};

class PlanSearch : public Workload {
 public:
  PlanSearch(std::uint64_t seed, int tasks) {
    ms::Rng rng(ms::derive_seed(seed, "perfbench.plan_search"));
    const int per_kind = tasks / kKindCount;
    std::vector<Query> by_kind[kKindCount];
    for (int k = 0; k < kKindCount; ++k) {
      for (int slot = 0; slot < per_kind; ++slot) {
        const Kind& kind = kKinds[k];
        const Point& p = kind.points[slot % kind.point_count];
        Query q;
        q.kind = k;
        q.gpus = p.gpus;
        q.batch = p.batch;
        q.net_scale = 1.0 - kNetJitter * (slot + rng.uniform()) / per_kind;
        by_kind[k].push_back(q);
      }
      rng.shuffle(by_kind[k]);
    }
    // Round-robin over kinds in a seeded kind order per round.
    for (int slot = 0; slot < per_kind; ++slot) {
      std::vector<int> order = {0, 1, 2, 3, 4};
      rng.shuffle(order);
      for (int k : order) queries_.push_back(by_kind[k][slot]);
    }
  }

  /// Rendered from the PlanSpec each query hands to plan::search, so equal
  /// lines mean equal planner inputs.
  std::vector<std::string> task_list() const override {
    std::vector<std::string> out;
    char buf[128];
    for (const Query& q : queries_) {
      const ms::plan::PlanSpec s = spec(q);
      std::snprintf(buf, sizeof(buf), "%s model=%s gpus=%d batch=%d net_eff=%.17g",
                    kKinds[q.kind].name, s.model.name.c_str(), s.gpus,
                    s.global_batch, s.network_efficiency);
      out.emplace_back(buf);
    }
    return out;
  }

  void setup(Spans* spans) override {
    std::set<int> gpus;
    for (const Query& q : queries_) gpus.insert(q.gpus);
    for (const int g : gpus) {
      Span span(spans, "net.fabric_efficiency");
      ms::plan::fabric_network_efficiency(g);
    }
    // Warm-up: one untimed search of every kind (first-touch memory).
    bool seen[kKindCount] = {};
    for (const Query& q : queries_) {
      if (seen[q.kind]) continue;
      seen[q.kind] = true;
      ms::plan::search(spec(q));
    }
  }

  void run(int i, Spans* spans) override {
    const Query& q = queries_[static_cast<std::size_t>(i)];
    spec_ = spec(q);
    {
      Span span(spans, "plan.search");
      report_ = ms::plan::search(spec_);
    }
    if (spans == nullptr) return;
    spans->add_count("plan.enumerated", report_.enumerated);
    spans->add_count("plan.feasible", report_.feasible());
    spans->add_count("plan.simulated", report_.simulated);
  }

  bool check(int i, std::uint64_t& digest) override {
    (void)i;
    digest = report_.digest();
    if (report_.plans.empty() || !report_.best().simulated) return false;
    const auto job = ms::plan::best_job_config(spec_, report_);
    return ms::engine::simulate_iteration(job).iteration_time ==
           report_.best().sim_step;
  }

  /// The same query without the DES stage, so that engine time is
  /// plan.search - plan.analytic.
  void traced_extra(int i, Spans* spans) override {
    (void)i;
    ms::plan::PlannerOptions opt;
    opt.simulate = false;
    Span span(spans, "plan.analytic");
    ms::plan::search(spec_, opt);
  }

  std::map<std::string, double> finish(Spans* spans) override {
    if (spans != nullptr) {
      const auto& layers = spans->layers();
      const auto search = layers.find("plan.search");
      const auto analytic = layers.find("plan.analytic");
      if (search != layers.end() && analytic != layers.end()) {
        spans->set("engine.simulate_iteration.busy_s",
                   search->second.busy_s - analytic->second.busy_s);
      }
    }
    return {};
  }

 private:
  /// fabric_network_efficiency() derives once per GPU count (in set-up)
  /// and is a cached lookup afterwards, as it is for msplan's queries.
  static ms::plan::PlanSpec spec(const Query& q) {
    ms::plan::PlanSpec s;
    if (kKinds[q.kind].big) {
      s.model = ms::model::config_175b();
      s.model.parallel_block = true;
      s.model.attention = ms::model::AttentionKind::kSlidingWindow;
      s.model.window = 512;
    } else {
      s.model = ms::model::config_13b();
    }
    s.gpus = q.gpus;
    s.global_batch = q.batch;
    s.network_efficiency =
        ms::plan::fabric_network_efficiency(q.gpus) * q.net_scale;
    return s;
  }

  std::vector<Query> queries_;
  ms::plan::PlanSpec spec_;
  ms::plan::PlanReport report_;
};

}  // namespace

std::unique_ptr<Workload> make_plan_search(std::uint64_t seed, int tasks) {
  return std::make_unique<PlanSearch>(seed, tasks);
}

}  // namespace perfbench
