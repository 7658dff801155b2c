#include "plan/planner.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

#include "check/digest.h"
#include "core/json.h"
#include "core/mutex.h"
#include "core/rng.h"
#include "core/table.h"
#include "net/ecmp.h"
#include "net/topology.h"
#include "prof/profiler.h"

namespace ms::plan {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Deterministic total order on equal-cost plans: prefer fewer pipeline
/// stages, then smaller TP, then less interleaving — a fixed convention so
/// report order (and therefore the digest) never depends on sort internals.
std::tuple<TimeNs, int, int, int, int> tie_key(TimeNs step,
                                               const PlanCandidate& c) {
  return {step, c.par.pp, c.par.tp, c.par.vpp, c.full_recompute ? 1 : 0};
}

}  // namespace

PlanReport search(const PlanSpec& spec, const PlannerOptions& opt) {
  PlanReport report;
  report.model_name = spec.model.name;
  report.gpus = spec.gpus;
  report.global_batch = spec.global_batch;
  report.network_efficiency = spec.network_efficiency;
  report.top_k = opt.top_k;

  const auto space = enumerate_space(spec);
  report.enumerated = static_cast<int>(space.size());

  std::vector<RankedPlan> ranked;
  ranked.reserve(space.size());
  for (const auto& cand : space) {
    if (!feasible(spec, cand)) {
      ++report.memory_rejected;
      continue;
    }
    RankedPlan plan;
    plan.cand = cand;
    plan.analytic = analytic_cost(spec, cand);
    ranked.push_back(plan);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedPlan& a, const RankedPlan& b) {
              return tie_key(a.analytic.step, a.cand) <
                     tie_key(b.analytic.step, b.cand);
            });
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    ranked[i].analytic_rank = static_cast<int>(i) + 1;
  }

  // DES-validate the analytic finalists; the simulator, not the pruner,
  // picks the winner.
  const std::size_t finalists =
      opt.simulate
          ? std::min(ranked.size(), static_cast<std::size_t>(
                                        std::max(0, opt.top_k)))
          : 0;
  for (std::size_t i = 0; i < finalists; ++i) {
    const auto cfg = job_config(spec, ranked[i].cand);
    const auto r = engine::simulate_iteration(cfg);
    ranked[i].simulated = true;
    ranked[i].sim_step = r.iteration_time;
    ranked[i].sim_mfu = r.mfu;
    ++report.simulated;
  }
  std::sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(finalists),
            [](const RankedPlan& a, const RankedPlan& b) {
              return tie_key(a.sim_step, a.cand) < tie_key(b.sim_step, b.cand);
            });
  report.plans = std::move(ranked);
  return report;
}

engine::JobConfig best_job_config(const PlanSpec& spec,
                                  const PlanReport& report) {
  return job_config(spec, report.best().cand);
}

std::uint64_t PlanReport::digest() const {
  check::Digest d;
  d.fold(std::string_view("msplan"));
  d.fold(std::string_view(model_name));
  d.fold(static_cast<std::uint64_t>(gpus));
  d.fold(static_cast<std::uint64_t>(global_batch));
  d.fold(std::string_view(fmt_double(network_efficiency)));
  d.fold(static_cast<std::uint64_t>(enumerated));
  d.fold(static_cast<std::uint64_t>(memory_rejected));
  d.fold(static_cast<std::uint64_t>(simulated));
  for (const auto& plan : plans) {
    d.fold(static_cast<std::uint64_t>(plan.cand.par.tp));
    d.fold(static_cast<std::uint64_t>(plan.cand.par.pp));
    d.fold(static_cast<std::uint64_t>(plan.cand.par.dp));
    d.fold(static_cast<std::uint64_t>(plan.cand.par.vpp));
    d.fold(static_cast<std::uint64_t>(plan.cand.full_recompute ? 1 : 0));
    d.fold(plan.analytic.step);
    d.fold(plan.simulated ? plan.sim_step : TimeNs{0});
  }
  return d.value();
}

std::string PlanReport::to_jsonl() const {
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof(digest_hex), "0x%016llx",
                static_cast<unsigned long long>(digest()));
  std::string out = "{\"plan_search\":{\"model\":\"" +
                    json::escape(model_name) + "\"";
  out += ",\"gpus\":" + std::to_string(gpus);
  out += ",\"global_batch\":" + std::to_string(global_batch);
  out += ",\"network_efficiency\":" + fmt_double(network_efficiency);
  out += ",\"top_k\":" + std::to_string(top_k);
  out += ",\"enumerated\":" + std::to_string(enumerated);
  out += ",\"memory_rejected\":" + std::to_string(memory_rejected);
  out += ",\"simulated\":" + std::to_string(simulated);
  out += std::string(",\"digest\":\"") + digest_hex + "\"}}\n";
  int rank = 0;
  for (const auto& plan : plans) {
    out += "{\"rank\":" + std::to_string(++rank);
    out += ",\"tp\":" + std::to_string(plan.cand.par.tp);
    out += ",\"pp\":" + std::to_string(plan.cand.par.pp);
    out += ",\"dp\":" + std::to_string(plan.cand.par.dp);
    out += ",\"vpp\":" + std::to_string(plan.cand.par.vpp);
    out += ",\"recompute\":" +
           std::to_string(plan.cand.full_recompute ? 1 : 0);
    out += ",\"analytic_rank\":" + std::to_string(plan.analytic_rank);
    out += ",\"analytic_step_ns\":" + std::to_string(plan.analytic.step);
    out += ",\"bubble_fraction\":" + fmt_double(plan.analytic.bubble_fraction);
    out += ",\"analytic_mfu\":" + fmt_double(plan.analytic.mfu);
    out += ",\"memory_bytes\":" + fmt_double(plan.analytic.memory_bytes);
    out += ",\"simulated\":" + std::to_string(plan.simulated ? 1 : 0);
    if (plan.simulated) {
      out += ",\"sim_step_ns\":" + std::to_string(plan.sim_step);
      out += ",\"sim_mfu\":" + fmt_double(plan.sim_mfu);
    }
    out += "}\n";
  }
  return out;
}

std::string PlanReport::render_table(int top_n) const {
  Table table({"#", "Plan", "m", "Analytic(s)", "Bubble", "Mem(GB)",
               "Sim(s)", "MFU", "ARank"});
  int shown = 0;
  for (const auto& plan : plans) {
    if (top_n > 0 && shown >= top_n) break;
    ++shown;
    const int m = global_batch / plan.cand.par.dp;
    table.add_row(
        {Table::fmt_int(shown), candidate_name(plan.cand), Table::fmt_int(m),
         Table::fmt(to_seconds(plan.analytic.step), 2),
         Table::fmt_pct(plan.analytic.bubble_fraction),
         Table::fmt(plan.analytic.memory_bytes / static_cast<double>(1_GiB),
                    1),
         plan.simulated ? Table::fmt(to_seconds(plan.sim_step), 2) : "-",
         plan.simulated ? Table::fmt_pct(plan.sim_mfu)
                        : Table::fmt_pct(plan.analytic.mfu),
         Table::fmt_int(plan.analytic_rank)});
  }
  return table.to_string();
}

double fabric_network_efficiency(int gpus) {
  // One derivation shared with the Table 2 benches (bench/common.h
  // delegates here): a CLOS fabric proportional to the job, permutation
  // traffic, mean attained-throughput fraction under ECMP.
  static Mutex mu;
  static std::map<int, double>* cache MS_GUARDED_BY(mu) =
      new std::map<int, double>();
  {
    MutexLock lock(mu);
    auto it = cache->find(gpus);
    if (it != cache->end()) return it->second;
  }

  MS_PROF_SCOPE("plan.fabric_network_efficiency");
  net::ClosParams p;
  p.hosts = std::max(16, gpus / 8);
  p.nics_per_host = 8;
  p.hosts_per_tor = 64;
  p.pods = std::max(1, p.hosts / 256);
  p.aggs_per_pod = 8;
  p.spines_per_plane = 8;
  net::ClosTopology topo(p);

  double total = 0;
  constexpr int kTrials = 3;
  for (int t = 0; t < kTrials; ++t) {
    Rng rng(0xEC3Fu + static_cast<std::uint64_t>(t));
    auto flows = net::permutation_traffic(topo, rng);
    total += net::analyze_ecmp(topo, flows).mean_throughput_frac;
  }
  const double eff = total / kTrials;
  MutexLock lock(mu);
  (*cache)[gpus] = eff;
  return eff;
}

}  // namespace ms::plan
