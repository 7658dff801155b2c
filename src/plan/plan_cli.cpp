#include "plan/plan_cli.h"

#include <cstdio>
#include <ostream>

#include "core/flags.h"
#include "diag/artifact.h"
#include "engine/job.h"
#include "plan/planner.h"

namespace ms::plan {

namespace {

// Search cost grows with both: 175b on 98,304 GPUs plans in 0.8 s,
// 786,432 in 9.9 s and 1,048,576 in 16.5 s (4-core host, RelWithDebInfo);
// 13b on 256 GPUs at batch 614,400 takes 3.3 s, linear in the batch.
constexpr int kMaxGpus = 1 << 20;
constexpr int kMaxBatch = 1 << 20;

}  // namespace

std::string msplan_usage() {
  return
      "usage: msplan --model 175b|530b|13b --gpus N [--batch B]\n"
      "              [--top-k K] [--top N] [--net-eff X|auto] [--baseline]\n"
      "              [--schedule 1f1b|gpipe] [--recompute-search]\n"
      "              [--json FILE] [--no-sim]\n"
      "  searches the (TP x PP x DP x vpp x recompute) space for the given\n"
      "  model and cluster size: analytic pruning (bubble fraction, alpha-\n"
      "  beta communication volume, memory), then DES validation of the\n"
      "  top-K finalists; prints the ranked table and the winning JobConfig\n"
      "  and optionally writes the full JSONL report with its digest\n";
}

int msplan_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  PlanSpec spec;
  PlannerOptions opt;
  std::string model_name = "175b";
  std::string json_path;
  std::string schedule = "1f1b";
  double net_eff = 0;  // 0 = auto: derived from the CLOS/ECMP analysis
  bool baseline = false;
  bool no_sim = false;
  int top_rows = 10;
  spec.gpus = 0;
  spec.global_batch = 6144;

  flags::Parser p("msplan", msplan_usage());
  p.text("--model", model_name);
  p.integer("--gpus", spec.gpus, 1, kMaxGpus);
  p.integer("--batch", spec.global_batch, 1, kMaxBatch);
  // The planner simulates at most the feasible plans, so K's cost stops
  // growing there (all 67 feasible 175b/12,288-GPU plans take 2.5 s).
  p.integer("--top-k", opt.top_k, 1);
  p.integer("--top", top_rows, 0);
  p.real("--net-eff", net_eff, flags::kFraction, "auto");
  p.choice("--schedule", schedule, {"1f1b", "gpipe"});
  p.text("--json", json_path);
  p.flag("--baseline", baseline);
  p.flag("--recompute-search", spec.search_recompute);
  p.flag("--no-sim", no_sim);
  if (!p.parse(args, err)) return 1;

  if (!model::config_by_name(model_name, spec.model)) {
    err << "msplan: unknown model `" << model_name << "`\n" << msplan_usage();
    return 1;
  }
  if (spec.gpus <= 0) {
    err << "msplan: --gpus is required and must be positive\n"
        << msplan_usage();
    return 1;
  }
  if (schedule == "gpipe") spec.schedule = engine::PipelineSchedule::kGpipe;
  opt.simulate = !no_sim;
  if (baseline) {
    spec.ops = model::OperatorProfile::megatron_baseline();
    spec.overlap = engine::OverlapOptions::megatron_lm();
  } else {
    // The MegaScale software generation also changes the model execution
    // (PTB + sliding-window attention), exactly as the Table 2 benches do.
    spec.model.parallel_block = true;
    spec.model.attention = model::AttentionKind::kSlidingWindow;
    spec.model.window = 512;
  }
  spec.network_efficiency =
      net_eff > 0 ? net_eff : fabric_network_efficiency(spec.gpus);

  const PlanReport report = search(spec, opt);
  out << "msplan: " << spec.model.name << " on " << spec.gpus
      << " GPUs, batch " << spec.global_batch << ", net-eff "
      << spec.network_efficiency << "\n";
  out << "space: " << report.enumerated << " candidates, "
      << report.memory_rejected << " memory-rejected, " << report.feasible()
      << " feasible, " << report.simulated << " simulated\n\n";
  if (report.plans.empty()) {
    err << "msplan: no feasible plan (model does not fit this cluster)\n";
    return 1;
  }
  out << report.render_table(top_rows) << "\n";

  const engine::JobConfig winner = best_job_config(spec, report);
  out << "winner: " << engine::describe(winner) << "\n";
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof(digest_hex), "0x%016llx",
                static_cast<unsigned long long>(report.digest()));
  out << "digest: " << digest_hex << "\n";

  if (!json_path.empty()) {
    if (!diag::write_text_file(json_path, report.to_jsonl())) {
      err << "msplan: cannot write " << json_path << "\n";
      return 1;
    }
    out << "report: " << json_path << " (" << report.plans.size()
        << " plans)\n";
  }
  return 0;
}

}  // namespace ms::plan
