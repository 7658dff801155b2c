#include "calib/calibrate_cli.h"

#include <ostream>

#include "calib/fit.h"
#include "calib/ingest.h"
#include "calib/replay.h"
#include "core/flags.h"
#include "diag/artifact.h"
#include "telemetry/exporters.h"
#include "telemetry/trace.h"

namespace ms::calib {

namespace {

constexpr double kDefaultTolerance = 0.02;

// Op durations scale by the factor into int64 nanoseconds; a 1000x
// straggler already stretches the demo step to hours.
constexpr flags::Interval kDemoFactorRange{0.0, 1000.0, true, false};

struct Options {
  std::string trace_path;
  std::string emit_path;
  std::string fitted_out;
  std::string preset = "fixture";
  bool as_json = false;
  bool no_replay = false;
  double tolerance = kDefaultTolerance;
  // --emit generating parameters (defaults deliberately off the profile
  // nominals so a fixture round-trip proves real recovery).
  double gemm_eff = 0.65;
  double attn_eff = 0.50;
  double mem_eff = 0.95;
  double net_eff = 0.85;
};

/// Simulates one traced step of `cfg`, writes its span JSONL to `path` and
/// prints "wrote <path> (<n> spans, step <t>"; the caller ends the line.
bool write_traced_step(engine::JobConfig cfg, const std::string& path,
                       const char* command, std::ostream& out,
                       std::ostream& err) {
  if (const std::string problem = engine::validate(cfg); !problem.empty()) {
    err << command << ": invalid config: " << problem << "\n";
    return false;
  }
  telemetry::Tracer tracer;
  cfg.tracer = &tracer;
  const engine::IterationResult result = engine::simulate_iteration(cfg);
  if (!diag::write_text_file(path, telemetry::jsonl_spans(tracer.spans()))) {
    err << command << ": cannot write " << path << "\n";
    return false;
  }
  out << "wrote " << path << " (" << tracer.size() << " spans, step "
      << format_duration(result.iteration_time);
  return true;
}

int emit_main(const Options& opt, std::ostream& out, std::ostream& err) {
  engine::JobConfig cfg =
      opt.preset == "demo" ? demo_config() : fixture_config();
  cfg.ops.gemm_efficiency = opt.gemm_eff;
  cfg.ops.attention_efficiency = opt.attn_eff;
  cfg.ops.flash_attention2_efficiency = opt.attn_eff;
  cfg.cluster.gpu.hbm_bw *= opt.mem_eff;
  cfg.network_efficiency = opt.net_eff;
  if (!write_traced_step(cfg, opt.emit_path, "msdiag calibrate", out, err)) {
    return 1;
  }
  out << ", gemm " << opt.gemm_eff << " attn " << opt.attn_eff << " mem "
      << opt.mem_eff << " net " << opt.net_eff << ")\n";
  return 0;
}

std::string demo_usage() {
  return "usage: msdiag demo <out.jsonl> [--straggler RANK | --slow-link "
         "STAGE] [--factor F]\n"
         "  synthesizes one traced training step (pp=8 pipeline) and writes\n"
         "  it as a trace artifact; --straggler slows one stage's compute,\n"
         "  --slow-link one stage's outbound p2p link, by factor F (default "
         "2.5)\n";
}

}  // namespace

engine::JobConfig fixture_config() {
  engine::JobConfig cfg;
  cfg.model = model::config_13b();
  cfg.par.tp = 1;
  cfg.par.pp = 4;
  cfg.par.vpp = 2;
  cfg.par.dp = 4;
  cfg.global_batch = 64;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = engine::OverlapOptions::megascale();
  return cfg;
}

engine::JobConfig demo_config() {
  engine::JobConfig cfg;
  cfg.model = model::config_175b();
  cfg.par.tp = 8;
  cfg.par.pp = 8;
  cfg.par.vpp = 6;
  cfg.par.dp = 4;
  cfg.global_batch = 256;
  cfg.ops = model::OperatorProfile::megascale();
  cfg.overlap = engine::OverlapOptions::megascale();
  return cfg;
}

std::string calibrate_usage() {
  return "  msdiag calibrate <trace> [--preset fixture|demo] [--json]\n"
         "                   [--fitted-out FILE] [--no-replay] [--tolerance "
         "T]\n"
         "      fit operator/collective parameters to a trace (span JSONL or\n"
         "      Chrome/Kineto JSON) and validate by re-simulation\n"
         "  msdiag calibrate --emit <out.jsonl> [--preset fixture|demo]\n"
         "                   [--gemm-eff X] [--attn-eff X] [--mem-eff X] "
         "[--net-eff X]\n"
         "      simulate one step with known parameters and write the trace\n";
}

int calibrate_main(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err) {
  Options opt;
  flags::Parser p("msdiag calibrate", calibrate_usage());
  p.positional("<trace>", opt.trace_path, /*required=*/false);
  p.text("--emit", opt.emit_path);
  p.choice("--preset", opt.preset, {"fixture", "demo"});
  p.text("--fitted-out", opt.fitted_out);
  p.flag("--json", opt.as_json);
  p.flag("--no-replay", opt.no_replay);
  p.real("--tolerance", opt.tolerance, flags::kPositive);
  p.real("--gemm-eff", opt.gemm_eff, flags::kFraction);
  p.real("--attn-eff", opt.attn_eff, flags::kFraction);
  p.real("--mem-eff", opt.mem_eff, flags::kFraction);
  p.real("--net-eff", opt.net_eff, flags::kFraction);
  if (!p.parse(args, err)) return 1;
  if (!opt.emit_path.empty()) return emit_main(opt, out, err);
  if (opt.trace_path.empty()) {
    err << calibrate_usage();
    return 1;
  }

  IngestResult ingest;
  std::string error;
  if (!ingest_trace_file(opt.trace_path, ingest, error)) {
    err << "msdiag calibrate: " << error << "\n";
    return 1;
  }
  for (const auto& w : ingest.warnings) {
    err << "msdiag calibrate: warning: " << w << "\n";
  }

  const engine::JobConfig base =
      opt.preset == "demo" ? demo_config() : fixture_config();
  const CalibrationReport report = fit_trace(ingest.spans, base);

  ReplayResult replay;
  const bool run_replay = !opt.no_replay && report.ok;
  if (run_replay) {
    replay = replay_fit(ingest.spans, report, base, opt.tolerance);
  }

  std::string artifact = report_jsonl(report);
  if (run_replay) artifact += replay_jsonl(replay);
  if (!opt.fitted_out.empty() &&
      !diag::write_text_file(opt.fitted_out, artifact)) {
    err << "msdiag calibrate: cannot write " << opt.fitted_out << "\n";
    return 1;
  }

  if (opt.as_json) {
    out << artifact;
  } else {
    if (ingest.skipped_events > 0) {
      out << "ingested " << ingest.spans.size() << " spans ("
          << ingest.skipped_events << " events skipped)\n";
    }
    out << report_table(report);
    if (run_replay) out << "\n" << replay_table(replay);
  }

  if (!report.ok) {
    err << "msdiag calibrate: " << report.error << "\n";
    return 1;
  }
  if (run_replay && (!replay.ok || !replay.within_tolerance)) {
    err << "msdiag calibrate: replay "
        << (replay.ok ? "out of tolerance" : "failed: " + replay.error)
        << "\n";
    return 1;
  }
  return 0;
}

int demo_main(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  engine::JobConfig cfg = demo_config();
  std::string out_path;
  int straggler = -1;
  int slow_link = -1;
  double factor = 2.5;
  flags::Parser p("msdiag demo", demo_usage());
  p.positional("<out.jsonl>", out_path);
  p.integer("--straggler", straggler, 0, cfg.par.pp - 1);
  p.integer("--slow-link", slow_link, 0, cfg.par.pp - 1);
  p.real("--factor", factor, kDemoFactorRange);
  if (!p.parse(args, err)) return 1;
  const auto pp = static_cast<std::size_t>(cfg.par.pp);
  if (straggler >= 0) {
    cfg.stage_speed.assign(pp, 1.0);
    cfg.stage_speed[static_cast<std::size_t>(straggler)] = factor;
  }
  if (slow_link >= 0) {
    cfg.link_speed.assign(pp, 1.0);
    cfg.link_speed[static_cast<std::size_t>(slow_link)] = factor;
  }
  if (!write_traced_step(cfg, out_path, "msdiag demo", out, err)) return 1;
  out << ")\n";
  return 0;
}

}  // namespace ms::calib
