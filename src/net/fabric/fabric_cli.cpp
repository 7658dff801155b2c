#include "net/fabric/fabric_cli.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/flags.h"
#include "core/rng.h"
#include "diag/artifact.h"
#include "diag/timeline.h"
#include "net/fabric/detectors.h"
#include "net/fabric/observatory.h"
#include "net/fabric/rounds.h"
#include "net/topology.h"

namespace ms::net::fabric {

namespace {

// The storm replay spans ~30 ms and a rehash round one bucket, so a
// cadence past 1 s adds nothing; the cap keeps the us -> ns cast in range.
constexpr flags::Interval kCadenceUs{0.0, 1'000'000.0, true, false};

struct FabricCliOptions {
  std::string command;
  std::string scenario = "storm";
  double intensity = 0.5;
  std::uint64_t seed = 42;
  std::string out_path;
  TimeNs cadence = milliseconds(1.0);
  int top = 8;
};

/// Runs the selected round into `obs` and returns its detector config.
FabricDetectorConfig run_scenario(const FabricCliOptions& opt,
                                  FabricObservatory& obs) {
  if (opt.scenario == "storm") {
    return run_storm_round(opt.intensity, &obs).detector;
  }
  const ClosTopology topo(small_clos());
  Rng rng(derive_seed(opt.seed, "fabric.cli"));
  return run_rehash_round(topo, rng, obs).detector;
}

int cmd_top(const FabricCliOptions& opt, const FabricObservatory& obs,
            const FabricReport& report, std::ostream& out) {
  out << "fabric " << opt.scenario << ": " << obs.link_count() << " links, "
      << report.alarms.size() << " alarms\n";
  for (const auto& alarm : report.alarms) out << "  " << describe(alarm) << "\n";
  if (report.hottest_link >= 0) {
    out << "localized: " << report.hottest_link_name << "\n";
  }
  out << "rank  link                          selfcong_ms  flows  util   "
         "tx_MB  pause_ms\n";
  const int limit = std::min<int>(opt.top, static_cast<int>(report.ranked.size()));
  for (int i = 0; i < limit; ++i) {
    const LinkScore& s = report.ranked[static_cast<std::size_t>(i)];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%4d  %-28s  %11.3f  %5d  %5.2f  %6.1f  %8.3f\n", i + 1,
                  s.name.c_str(), to_seconds(s.self_congested) * 1.0e3,
                  s.peak_flows, s.mean_util, s.tx_bytes / mega(1.0),
                  to_seconds(s.pause_time) * 1.0e3);
    out << buf;
  }
  return 0;
}

int cmd_heatmap(const FabricObservatory& obs, const FabricReport& report,
                std::ostream& out) {
  // Legend first: heatmap rows are link indices.
  for (int link = 0; link < obs.link_count(); ++link) {
    out << "link " << link << ": " << obs.link_name(link) << "\n";
  }
  out << obs.heatmap().ascii();
  if (report.hottest_link >= 0) {
    out << "hottest: link " << report.hottest_link << " ("
        << report.hottest_link_name << ")\n";
  }
  return 0;
}

/// One lane per ranked hot link; one span per retained bucket, named by the
/// bucket's dominant state (pause > hot > tx).
diag::TimelineTrace build_timeline(const FabricObservatory& obs,
                                   const FabricReport& report, int lanes) {
  diag::TimelineTrace trace;
  const TimeNs cadence = obs.config().cadence;
  const int limit = std::min<int>(lanes, static_cast<int>(report.ranked.size()));
  for (int lane = 0; lane < limit; ++lane) {
    const LinkScore& score = report.ranked[static_cast<std::size_t>(lane)];
    for (const auto& sample : obs.samples(score.link)) {
      const double util = obs.utilization(score.link, sample);
      if (sample.tx_bytes <= 0 && sample.pause_time <= 0 &&
          sample.queue_peak_bytes <= 0) {
        continue;
      }
      diag::TraceSpan span;
      span.rank = lane;
      span.name = sample.pause_time > 0 ? "pause"
                  : util >= 0.9         ? "hot"
                                        : "tx";
      span.tag = score.name;
      span.start = sample.bucket;
      span.end = sample.bucket + cadence;
      char detail[128];
      std::snprintf(detail, sizeof detail,
                    "util=%.3f queue=%.0f flows=%d ecn=%.0f", util,
                    sample.queue_peak_bytes, sample.active_flows,
                    sample.ecn_marks);
      span.detail = detail;
      trace.add(span);
    }
  }
  return trace;
}

int cmd_timeline(const FabricCliOptions& opt, const FabricObservatory& obs,
                 const FabricReport& report, std::ostream& out,
                 std::ostream& err) {
  const auto trace = build_timeline(obs, report, opt.top);
  if (!opt.out_path.empty()) {
    if (!diag::write_text_file(opt.out_path, trace.chrome_trace_json())) {
      err << "msdiag fabric: cannot write " << opt.out_path << "\n";
      return 1;
    }
    out << "wrote " << opt.out_path << " (" << trace.size()
        << " spans, one lane per hot link)\n";
    return 0;
  }
  TimeNs lo = 0, hi = 0;
  const int limit = std::min<int>(opt.top, static_cast<int>(report.ranked.size()));
  for (int lane = 0; lane < limit; ++lane) {
    const int link = report.ranked[static_cast<std::size_t>(lane)].link;
    for (const auto& sample : obs.samples(link)) {
      hi = std::max(hi, sample.bucket + obs.config().cadence);
    }
    out << "lane " << lane << ": "
        << report.ranked[static_cast<std::size_t>(lane)].name << "\n";
  }
  out << trace.render(lo, hi);
  return 0;
}

int cmd_paths(const FabricCliOptions& opt, const FabricObservatory& obs,
              std::ostream& out) {
  // Largest flows first; ties by registration order (stable sort).
  std::vector<std::size_t> order(obs.flows().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return obs.flows()[a].bytes > obs.flows()[b].bytes;
                   });
  out << obs.flows().size() << " flows recorded ("
      << obs.flow_records_dropped() << " dropped)\n";
  const std::size_t limit =
      std::min<std::size_t>(static_cast<std::size_t>(opt.top), order.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const FlowPathRecord& flow = obs.flows()[order[i]];
    char buf[64];
    std::snprintf(buf, sizeof buf, "0x%016llx %9.1f MB  ",
                  static_cast<unsigned long long>(flow.label),
                  flow.bytes / mega(1.0));
    out << buf;
    for (std::size_t h = 0; h < flow.links.size(); ++h) {
      if (h > 0) out << " > ";
      out << obs.link_name(flow.links[h]);
    }
    out << "\n";
  }
  return 0;
}

int cmd_export(const FabricCliOptions& opt, const FabricObservatory& obs,
               std::ostream& out, std::ostream& err) {
  const std::string artifact = obs.jsonl();
  if (opt.out_path.empty()) {
    out << artifact;
    return 0;
  }
  if (!diag::write_text_file(opt.out_path, artifact)) {
    err << "msdiag fabric: cannot write " << opt.out_path << "\n";
    return 1;
  }
  out << "wrote " << opt.out_path << "\n";
  return 0;
}

}  // namespace

std::string fabric_usage() {
  return
      "  msdiag fabric <top|heatmap|timeline|paths|export>\n"
      "                [--scenario storm|rehash] [--intensity F] [--seed N]\n"
      "                [--cadence-us N] [--top N] [--out FILE]\n"
      "    per-link fabric telemetry for a reproduced congestion scenario:\n"
      "    alarm/localization tables, link heatmap, Perfetto timeline (one\n"
      "    lane per hot link), flow path ledger, or the raw JSONL artifact\n";
}

int fabric_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  FabricCliOptions opt;
  double cadence_us = to_microseconds(opt.cadence);
  flags::Parser p("msdiag fabric", fabric_usage());
  p.positional("<command>", opt.command, true,
               {"top", "heatmap", "timeline", "paths", "export"});
  p.choice("--scenario", opt.scenario, {"storm", "rehash"});
  p.real("--intensity", opt.intensity, flags::kFraction);
  p.seed("--seed", opt.seed);
  p.text("--out", opt.out_path);
  p.real("--cadence-us", cadence_us, kCadenceUs);
  p.integer("--top", opt.top, 1);
  if (!p.parse(args, err)) return 1;
  opt.cadence = microseconds(cadence_us);
  if (opt.cadence <= 0) {  // sub-nanosecond cadences round to zero
    err << fabric_usage();
    return 1;
  }

  FabricObservatoryConfig obs_cfg;
  obs_cfg.cadence = opt.cadence;
  FabricObservatory obs(obs_cfg);
  const FabricDetectorConfig det = run_scenario(opt, obs);
  const FabricReport report = detect_anomalies(obs, det);

  if (opt.command == "top") return cmd_top(opt, obs, report, out);
  if (opt.command == "heatmap") return cmd_heatmap(obs, report, out);
  if (opt.command == "timeline") {
    return cmd_timeline(opt, obs, report, out, err);
  }
  if (opt.command == "paths") return cmd_paths(opt, obs, out);
  return cmd_export(opt, obs, out, err);
}

}  // namespace ms::net::fabric
