// fleet_replay: one seeded Figure-11-shaped production replay per task, at
// one-eighth of fig11's scale (1,536 GPUs, 192 nodes, 56 days, 9 h MTBF).
//
// Why: the telemetry aggregation tree (one ~350 KB sketch per rank, host
// leaders carrying the fabric sketch, as fig11 does) is nearly all of the
// task and sets its memory; the ft replay and the run ledger stay in the
// task so that a costlier fault-tolerance model shows. The steady step and
// the fabric sketch are computed once, in set-up.
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "check/digest.h"
#include "core/rng.h"
#include "engine/job.h"
#include "ft/faults.h"
#include "ft/workflow.h"
#include "harness.h"
#include "net/ccsim_multi.h"
#include "net/fabric/observatory.h"
#include "plan/planner.h"
#include "telemetry/aggregator.h"
#include "telemetry/ledger.h"
#include "telemetry/metrics.h"
#include "telemetry/sketch.h"

namespace perfbench {
namespace {

constexpr int kGpus = 1536;
constexpr int kBatch = 768;
constexpr int kNodes = kGpus / 8;
constexpr int kIncrementalFlushes = 3;
constexpr int kResubmitsPerFlush = 24;  // sparse: one rank in 64

class FleetReplay : public Workload {
 public:
  FleetReplay(std::uint64_t seed, int tasks) {
    for (int i = 0; i < tasks; ++i) {
      task_seeds_.push_back(ms::derive_seed(seed, "perfbench.fleet_replay",
                                            static_cast<std::uint64_t>(i)));
    }
    warmup_seed_ = ms::derive_seed(seed, "perfbench.fleet_replay.warmup");
  }

  std::vector<std::string> task_list() const override {
    std::vector<std::string> out;
    char buf[64];
    for (const std::uint64_t s : task_seeds_) {
      std::snprintf(buf, sizeof(buf), "replay seed=0x%016llx",
                    static_cast<unsigned long long>(s));
      out.emplace_back(buf);
    }
    return out;
  }

  void setup(Spans* spans) override {
    ms::engine::JobConfig job;
    job.model = ms::model::config_175b();
    job.model.parallel_block = true;
    job.model.attention = ms::model::AttentionKind::kSlidingWindow;
    job.model.window = 512;
    job.par = ms::parallel::ParallelConfig{.tp = 8, .pp = 8,
                                           .dp = kGpus / 64, .vpp = 6};
    job.global_batch = kBatch;
    job.ops = ms::model::OperatorProfile::megascale();
    job.overlap = ms::engine::OverlapOptions::megascale();
    {
      Span span(spans, "net.fabric_efficiency");
      job.network_efficiency = ms::plan::fabric_network_efficiency(kGpus);
    }
    ms::telemetry::MetricsRegistry step_metrics;
    job.metrics = &step_metrics;
    const auto step = ms::engine::simulate_iteration(job);
    steady_.step_time = step.iteration_time;
    steady_.mfu = step.mfu;
    steady_.tokens_per_second =
        job.tokens_per_iteration() / ms::to_seconds(step.iteration_time);
    step_sketch_ = ms::telemetry::SketchSnapshot::from(step_metrics.snapshot());

    ms::net::fabric::FabricObservatory fabric;
    ms::net::MultiCcParams params = ms::net::victim_params(8);
    params.observatory = &fabric;
    ms::net::run_multi_cc_sim(params,
                              [] { return std::make_unique<ms::net::Dcqcn>(); });
    fabric_sketch_ = fabric.sketch();

    tree_cfg_.ranks = kGpus;
    tree_cfg_.ranks_per_host = job.cluster.gpus_per_node;
    tree_cfg_.hosts_per_pod = 32;
    tree_cfg_.cluster = job.cluster;
    tree_cfg_.network_efficiency = job.network_efficiency;

    replay(warmup_seed_, nullptr);
  }

  void run(int i, Spans* spans) override {
    replay(task_seeds_[static_cast<std::size_t>(i)], spans);
  }

  bool check(int i, std::uint64_t& digest) override {
    ms::check::Digest d;
    d.fold(series_digest_);
    d.fold(tree_->root().digest());
    d.fold(static_cast<std::int64_t>(tree_->network_bytes_total()));
    digest = d.value();
    bool ok = std::abs(ledger_ettr_ - ft_ettr_) <= 1e-9 &&
              overhead_ < 0.01;
    // The flat-merge oracle costs about a flush; run it on the first and
    // the last task.
    const int last = static_cast<int>(task_seeds_.size()) - 1;
    if (i == 0 || i == last) {
      ok = ok && ms::telemetry::approx_same(tree_->root(), tree_->flat_merge());
    }
    return ok;
  }

 private:
  void replay(std::uint64_t seed, Spans* spans) {
    const ms::TimeNs duration = ms::days(56.0);
    std::vector<ms::ft::FaultEvent> faults;
    {
      Span span(spans, "ft.draw_fault_schedule");
      ms::Rng fault_rng(ms::derive_seed(seed, "faults"));
      faults = ms::ft::draw_fault_schedule(duration, ms::hours(9.0), kNodes,
                                           ms::ft::default_fault_mix(),
                                           fault_rng);
    }
    ms::telemetry::MetricsRegistry registry;
    ms::ft::WorkflowConfig wf;
    wf.nodes = kNodes;
    wf.metrics = &registry;
    ms::ft::RunReport report;
    {
      Span span(spans, "ft.run_robust_training");
      ms::Rng run_rng(ms::derive_seed(seed, "run"));
      report = ms::ft::run_robust_training(wf, duration, faults, run_rng);
    }
    {
      Span span(spans, "telemetry.ledger");
      ms::telemetry::LedgerConfig lcfg;
      lcfg.duration = duration;
      lcfg.interval = ms::hours(6.0);
      ms::telemetry::RunLedger ledger(lcfg);
      ledger.set_steady_state(steady_);
      ledger.ingest(report, wf.checkpoint_interval);
      const auto series = ledger.finalize();
      ledger_ettr_ = series.totals.ettr;
      series_digest_ = series.digest;
    }
    ft_ettr_ = report.effective_time_ratio;

    ms::telemetry::SketchSnapshot rank_sketch;
    ms::telemetry::SketchSnapshot leader_sketch;
    {
      Span span(spans, "telemetry.sketch");
      rank_sketch = step_sketch_;
      rank_sketch.merge(ms::telemetry::SketchSnapshot::from(registry.snapshot()));
      leader_sketch = rank_sketch;
      leader_sketch.merge(fabric_sketch_);
    }
    const int per_host = tree_cfg_.ranks_per_host;
    auto sketch_for = [&](int rank) -> const ms::telemetry::SketchSnapshot& {
      return rank % per_host == 0 ? leader_sketch : rank_sketch;
    };
    {
      // Every task drops the previous task's tree (the warm-up's, for the
      // first), so each timed task pays exactly one teardown while the
      // oracle can still inspect the tree after the timed span.
      Span span(spans, "telemetry.aggregator.teardown");
      tree_.reset();
    }
    {
      Span span(spans, "telemetry.aggregator.submit");
      tree_.emplace(tree_cfg_);
      for (int r = 0; r < kGpus; ++r) tree_->submit(r, sketch_for(r));
    }
    {
      Span span(spans, "telemetry.aggregator.flush");
      overhead_ = tree_->flush().overhead_fraction;
    }
    ms::Rng pick(ms::derive_seed(seed, "resubmit"));
    for (int f = 0; f < kIncrementalFlushes; ++f) {
      {
        Span span(spans, "telemetry.aggregator.submit");
        for (int k = 0; k < kResubmitsPerFlush; ++k) {
          const int r = static_cast<int>(pick.uniform_index(kGpus));
          tree_->submit(r, sketch_for(r));
        }
      }
      Span span(spans, "telemetry.aggregator.flush");
      tree_->flush();
    }
    if (spans == nullptr) return;
    spans->add_count("ft.incidents", static_cast<double>(report.incidents.size()));
    spans->add_count("ft.restarts", report.restarts);
    spans->set("telemetry.sketch.series", static_cast<double>(rank_sketch.size()));
    spans->set("telemetry.sketch.encoded_bytes",
               static_cast<double>(rank_sketch.encoded_bytes()));
    spans->add_count("telemetry.aggregator.network_bytes",
                     static_cast<double>(tree_->network_bytes_total()));
  }

  std::vector<std::uint64_t> task_seeds_;
  std::uint64_t warmup_seed_ = 0;
  ms::telemetry::SteadyState steady_;
  ms::telemetry::SketchSnapshot step_sketch_;
  ms::telemetry::SketchSnapshot fabric_sketch_;
  ms::telemetry::AggTreeConfig tree_cfg_;
  std::optional<ms::telemetry::AggregationTree> tree_;
  double ledger_ettr_ = 0;
  double ft_ettr_ = 0;
  double overhead_ = 1;
  std::uint64_t series_digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_replay(std::uint64_t seed, int tasks) {
  return std::make_unique<FleetReplay>(seed, tasks);
}

}  // namespace perfbench
