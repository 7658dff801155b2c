// Fabric observatory bench (§3.6 / §5 observability): gates the telemetry
// layer's three load-bearing promises.
//   (a) localization — the PFC-storm victim chain and an ECMP hashing
//       conflict round must rank the injected bottleneck top-1, with the
//       detection latency and alarm mix pinned;
//   (b) cost — the sampling hooks are charged per simulator event
//       (wall-clock, info-only) and the sketch the host leader ships
//       through the aggregation tree is byte-pinned;
//   (c) passivity — simulator results with the observatory attached must be
//       bit-identical to a bare run, folded into a gated 0/1 metric.
#include <cstdio>
#include <string>

#include "bench/common.h"
#include "core/table.h"
#include "core/wallclock.h"
#include "net/fabric/detectors.h"
#include "net/fabric/observatory.h"
#include "net/fabric/rounds.h"
#include "net/topology.h"

using namespace ms;
using namespace ms::net;
using namespace ms::net::fabric;

namespace {

constexpr std::uint64_t kBenchSeed = 0xFAB;

void storm_section(ms::bench::BenchReport& br) {
  std::printf("--- (a) PFC-storm localization ---\n");
  // Intensity 1: the 16-sender victim chain.
  const auto bare = run_storm_round(1.0, nullptr).result;

  FabricObservatory obs;
  const WallNs t0 = wallclock_ns();
  const auto observed = run_storm_round(1.0, &obs);
  const WallNs observed_wall = wallclock_ns() - t0;

  bool passive =
      bare.flow_goodput_frac == observed.result.flow_goodput_frac &&
      bare.hop_pause_fraction == observed.result.hop_pause_fraction &&
      bare.hop_pause_events == observed.result.hop_pause_events &&
      bare.hop_max_queue == observed.result.hop_max_queue;

  const auto report = detect_anomalies(obs, observed.detector);

  Table t({"link", "self-congested ms", "pause ms", "mean util"});
  for (const auto& score : report.ranked) {
    t.add_row({score.name, Table::fmt(to_milliseconds(score.self_congested)),
               Table::fmt(to_milliseconds(score.pause_time)),
               Table::fmt_pct(score.mean_util)});
  }
  t.print();
  std::printf("hottest: %s (expected %s), alarms: %zu, first at %.1f ms\n",
              report.hottest_link_name.c_str(), observed.bottleneck.c_str(),
              report.alarms.size(), to_milliseconds(report.first_alarm));

  br.metric("storm_top1_correct",
            report.hottest_link_name == observed.bottleneck ? 1.0 : 0.0, 0.0);
  br.metric("storm_passive", passive ? 1.0 : 0.0, 0.0);
  br.metric("storm_alarm_count", static_cast<double>(report.alarms.size()),
            0.0);
  br.metric("storm_first_alarm_ms", to_milliseconds(report.first_alarm), 0.02);
  br.metric("storm_self_congested_ms",
            to_milliseconds(report.ranked.front().self_congested), 0.02);
  br.metric("fabric_sketch_bytes",
            static_cast<double>(obs.sketch().encoded_bytes()), 0.0);
  br.info("storm_observed_wall_ms",
          wall_to_seconds(observed_wall) * 1e3);  // ms-lint: allow(unit-literal)

  // Digest stability: the same seeded run recorded twice must fold to the
  // same fabric digest (the chaos grader depends on this).
  FabricObservatory again;
  run_storm_round(1.0, &again);
  br.metric("storm_digest_stable", obs.digest() == again.digest() ? 1.0 : 0.0,
            0.0);
}

void rehash_section(ms::bench::BenchReport& br) {
  std::printf("\n--- (b) ECMP hashing-conflict localization ---\n");
  ClosTopology topo(small_clos());
  Rng rng(derive_seed(kBenchSeed, "fabric.rehash"));
  FabricObservatory obs;
  const auto round = run_rehash_round(topo, rng, obs);
  const auto& report = round.report;
  const auto fabric_report = detect_anomalies(obs, round.detector);

  std::printf("flows: %d, max per uplink: %d, hottest: %s\n", report.flows,
              report.max_flows_per_uplink,
              fabric_report.hottest_link_name.c_str());

  br.metric("rehash_max_flows_per_uplink",
            static_cast<double>(report.max_flows_per_uplink), 0.0);
  br.metric("rehash_conflict_fraction", report.conflict_fraction, 0.02);
  br.metric("rehash_flow_records", static_cast<double>(obs.flows().size()),
            0.0);
  br.metric("rehash_alarm_count",
            static_cast<double>(fabric_report.alarms.size()), 0.0);
}

void cost_section(ms::bench::BenchReport& br) {
  std::printf("\n--- (c) sampling-hook cost ---\n");
  FabricObservatory obs;
  const int link = obs.add_link("cost-probe", gbps(200));
  constexpr int kEvents = 2'000'000;
  const WallNs t0 = wallclock_ns();
  for (int i = 0; i < kEvents; ++i) {
    const TimeNs at = static_cast<TimeNs>(i) * 500;  // 2000 events/bucket
    obs.record_tx(link, at, 1024.0);
    obs.record_queue(link, at, 4096.0);
  }
  const WallNs spent = wallclock_ns() - t0;
  const double ns_per_event =
      static_cast<double>(spent) / (2.0 * kEvents);
  std::printf("%d record events in %.1f ms (%.1f ns/event)\n", 2 * kEvents,
              wall_to_seconds(spent) * 1e3,  // ms-lint: allow(unit-literal)
              ns_per_event);
  br.info("record_ns_per_event", ns_per_event);
  br.metric("cost_samples_retained",
            static_cast<double>(obs.series(link).sample_count()), 0.0);
  br.metric("cost_buckets_dropped",
            static_cast<double>(obs.series(link).dropped()), 0.0);
}

}  // namespace

int main() {
  std::printf("== Fabric observatory: localization, cost, passivity ==\n\n");
  ms::bench::BenchReport br("fabric_observatory");
  br.config("scenario_storm_senders", 16.0);
  br.config("scenario_rehash_group", 16.0);

  storm_section(br);
  rehash_section(br);
  cost_section(br);

  if (!br.write()) {
    std::fprintf(stderr, "failed to write bench artifact\n");
    return 1;
  }
  std::printf("\nwrote BENCH_fabric_observatory.json\n");
  return 0;
}
