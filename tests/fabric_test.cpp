// Fabric observatory (src/net/fabric): ring-buffered per-link series,
// passive simulator hooks, flow path attribution, the four anomaly
// detectors and the congestion-origin localization ranking, plus the
// `msdiag fabric` CLI surface. The two load-bearing guarantees pinned
// here: the observatory is strictly passive (simulator results are
// bit-identical with it attached or absent) and fully deterministic
// (same seed => same digest).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "diag/flight_recorder.h"
#include "net/ccsim_multi.h"
#include "net/ecmp.h"
#include "net/fabric/detectors.h"
#include "net/fabric/fabric_cli.h"
#include "net/fabric/observatory.h"
#include "net/fabric/series.h"
#include "net/flowsim.h"
#include "net/topology.h"
#include "support/builders.h"

namespace ms::net::fabric {
namespace {

using testsupport::small_clos_params;

// ------------------------------------------------------------ LinkSeries

TEST(LinkSeries, FoldsNotesIntoCadenceBuckets) {
  LinkSeries s(milliseconds(1.0), 8);
  s.note_tx(microseconds(100.0), 500.0);
  s.note_tx(microseconds(900.0), 250.0);  // same bucket: accumulates
  s.note_tx(microseconds(1500.0), 100.0);  // next bucket
  const auto samples = s.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].bucket, 0);
  EXPECT_DOUBLE_EQ(samples[0].tx_bytes, 750.0);
  EXPECT_EQ(samples[1].bucket, milliseconds(1.0));
  EXPECT_DOUBLE_EQ(samples[1].tx_bytes, 100.0);
}

TEST(LinkSeries, LateNoteFoldsIntoOpenBucketNotAClosedOne) {
  LinkSeries s(milliseconds(1.0), 8);
  s.note_tx(milliseconds(1.0), 10.0);
  s.note_tx(milliseconds(5.0), 20.0);
  // A note stamped before the open bucket (simulator sub-step skew) folds
  // into the open bucket; the closed 1 ms bucket is immutable.
  s.note_tx(milliseconds(1.0), 7.0);
  const auto samples = s.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].tx_bytes, 10.0);
  EXPECT_DOUBLE_EQ(samples[1].tx_bytes, 27.0);
}

TEST(LinkSeries, PeaksHoldBucketMaximum) {
  LinkSeries s(milliseconds(1.0), 8);
  s.note_queue(0, 100.0);
  s.note_queue(microseconds(500.0), 40.0);
  s.note_active_flows(0, 3);
  s.note_active_flows(microseconds(700.0), 9);
  s.note_active_flows(microseconds(800.0), 1);
  const auto samples = s.samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].queue_peak_bytes, 100.0);
  EXPECT_EQ(samples[0].active_flows, 9);
}

TEST(LinkSeries, RingEvictsOldestAndCountsDrops) {
  LinkSeries s(milliseconds(1.0), 4);
  for (int b = 0; b < 8; ++b) {
    s.note_tx(milliseconds(static_cast<double>(b)), 1.0 + b);
  }
  EXPECT_EQ(s.sample_count(), 4u);
  EXPECT_EQ(s.dropped(), 4u);
  const auto samples = s.samples();
  EXPECT_EQ(samples.front().bucket, milliseconds(4.0));  // oldest retained
  EXPECT_EQ(samples.back().bucket, milliseconds(7.0));
  EXPECT_DOUBLE_EQ(s.total_tx_bytes(), 5.0 + 6.0 + 7.0 + 8.0);
}

// --------------------------------------------------- observatory basics

TEST(Observatory, AddLinkDedupesByName) {
  FabricObservatory obs;
  const int a = obs.add_link("tor0->agg0", gbps(400));
  const int b = obs.add_link("tor0->agg0", gbps(400));
  EXPECT_EQ(a, b);
  EXPECT_EQ(obs.link_count(), 1);
  EXPECT_EQ(obs.find_link("tor0->agg0"), a);
  EXPECT_EQ(obs.find_link("no-such-link"), -1);
}

TEST(Observatory, AttachTopologyIndicesMatchLinkIds) {
  ClosTopology topo(small_clos_params());
  FabricObservatory obs;
  obs.attach_topology(topo);
  ASSERT_EQ(obs.link_count(), static_cast<int>(topo.links().size()));
  for (int l = 0; l < obs.link_count(); ++l) {
    EXPECT_NE(obs.link_name(l).find("->"), std::string::npos);
    EXPECT_EQ(obs.link_capacity(l),
              topo.links()[static_cast<std::size_t>(l)].capacity);
  }
}

TEST(Observatory, FlowRecordBudgetDropsAreCountedNotFatal) {
  FabricObservatoryConfig cfg;
  cfg.max_flow_records = 1;
  FabricObservatory obs(cfg);
  obs.add_link("l0", gbps(200));
  const int kept = obs.record_flow_path(1, {0});
  const int dropped = obs.record_flow_path(2, {0});
  EXPECT_EQ(kept, 0);
  EXPECT_EQ(dropped, -1);
  EXPECT_EQ(obs.flow_records_dropped(), 1u);
  obs.attribute_flow_bytes(dropped, 0, 100.0);  // ignored, no crash
  obs.attribute_flow_bytes(kept, 0, 100.0);
  EXPECT_DOUBLE_EQ(obs.flows()[0].bytes, 100.0);
  EXPECT_DOUBLE_EQ(obs.series(0).total_tx_bytes(), 100.0);
}

TEST(Observatory, UtilizationNormalizesByCapacityAndCadence) {
  FabricObservatory obs;  // 1 ms cadence
  const int l = obs.add_link("l0", 1000.0);  // 1000 B/s => 1 B per bucket
  obs.record_tx(l, 0, 0.5);
  const auto samples = obs.samples(l);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(obs.utilization(l, samples[0]), 0.5);
}

// -------------------------------------------- passivity and determinism

TEST(Observatory, CcSimResultsIdenticalWithObservatoryAttached) {
  MultiCcParams p = incast_params(16);
  p.duration_s = 0.02;
  const auto bare =
      run_multi_cc_sim(p, [] { return std::make_unique<Dcqcn>(); });
  FabricObservatory obs;
  p.observatory = &obs;
  const auto observed =
      run_multi_cc_sim(p, [] { return std::make_unique<Dcqcn>(); });
  EXPECT_DOUBLE_EQ(bare.hop_utilization[0], observed.hop_utilization[0]);
  EXPECT_DOUBLE_EQ(bare.hop_mean_queue[0], observed.hop_mean_queue[0]);
  EXPECT_DOUBLE_EQ(bare.hop_p99_queue[0], observed.hop_p99_queue[0]);
  EXPECT_DOUBLE_EQ(bare.hop_pause_fraction[0], observed.hop_pause_fraction[0]);
  EXPECT_EQ(bare.hop_pause_events[0], observed.hop_pause_events[0]);
  EXPECT_DOUBLE_EQ(bare.fairness, observed.fairness);
  EXPECT_GT(obs.series(0).sample_count(), 0u);
}

TEST(Observatory, MultiCcResultsIdenticalWithObservatoryAttached) {
  auto params = victim_params(16);
  const auto bare =
      run_multi_cc_sim(params, [] { return std::make_unique<Dcqcn>(); });
  FabricObservatory obs;
  params.observatory = &obs;
  const auto observed =
      run_multi_cc_sim(params, [] { return std::make_unique<Dcqcn>(); });
  ASSERT_EQ(bare.flow_goodput_frac.size(), observed.flow_goodput_frac.size());
  for (std::size_t f = 0; f < bare.flow_goodput_frac.size(); ++f) {
    EXPECT_DOUBLE_EQ(bare.flow_goodput_frac[f], observed.flow_goodput_frac[f]);
  }
  for (std::size_t h = 0; h < bare.hop_pause_fraction.size(); ++h) {
    EXPECT_DOUBLE_EQ(bare.hop_pause_fraction[h],
                     observed.hop_pause_fraction[h]);
    EXPECT_EQ(bare.hop_pause_events[h], observed.hop_pause_events[h]);
  }
}

TEST(Observatory, DigestIsDeterministicAcrossRuns) {
  auto digest_of_run = [] {
    auto params = victim_params(12);
    FabricObservatory obs;
    params.observatory = &obs;
    run_multi_cc_sim(params, [] { return std::make_unique<Dcqcn>(); });
    return obs.digest();
  };
  const auto a = digest_of_run();
  const auto b = digest_of_run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
}

// ------------------------------------------------------------ detectors

TEST(Detectors, LocalizationNamesOriginNotPausedVictim) {
  FabricObservatory obs;
  const int victim = obs.add_link("victim-uplink", gbps(200));
  const int origin = obs.add_link("bottleneck", gbps(25));
  FabricDetectorConfig det;
  det.queue_hot_bytes = 1000.0;
  for (int b = 0; b < 5; ++b) {
    const TimeNs t = milliseconds(static_cast<double>(b));
    // Both queues are over threshold, but the victim's egress is fully
    // paused by downstream pause frames — its depth is collateral, not
    // cause. "Deepest queue" would pick it; self-congested time must not.
    obs.record_queue(victim, t, 5000.0);
    obs.record_pause(victim, t, milliseconds(1.0));
    obs.record_queue(origin, t, 2000.0);
  }
  const auto ranked = rank_links(obs, FabricDetectorConfig(det));
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].link, origin);
  EXPECT_GT(ranked[0].self_congested, 0);
  EXPECT_EQ(ranked[1].self_congested, 0);
}

TEST(Detectors, StormLocalizesBottleneckHopAndRaisesAlarms) {
  auto params = victim_params(16);
  FabricObservatory obs;
  params.observatory = &obs;
  run_multi_cc_sim(params, [] { return std::make_unique<Dcqcn>(); });
  FabricDetectorConfig det;
  det.queue_hot_bytes = params.pfc_pause;
  const auto report = detect_anomalies(obs, det);
  // The injected bottleneck is the last hop of the victim chain.
  EXPECT_EQ(report.hottest_link_name,
            params.observatory_link_prefix +
                std::to_string(params.hops - 1));
  EXPECT_FALSE(report.alarms.empty());
  EXPECT_GE(report.first_alarm, 0);
  bool saw_storm = false;
  for (const auto& alarm : report.alarms) {
    EXPECT_FALSE(describe(alarm).empty());
    if (alarm.detector == "pfc-storm") saw_storm = true;
  }
  EXPECT_TRUE(saw_storm);
}

TEST(Detectors, AlarmsFreezeFlightRecorder) {
  diag::FlightRecorder flight;
  auto params = victim_params(16);
  FabricObservatoryConfig cfg;
  cfg.flight = &flight;
  FabricObservatory obs(cfg);
  params.observatory = &obs;
  run_multi_cc_sim(params, [] { return std::make_unique<Dcqcn>(); });
  FabricDetectorConfig det;
  det.queue_hot_bytes = params.pfc_pause;
  detect_anomalies(obs, det);
  const auto dumps = flight.dumps();
  ASSERT_EQ(dumps.size(), 1u);  // one freeze per detection pass
  EXPECT_EQ(dumps[0].reason.rfind("fabric:", 0), 0u);
  EXPECT_FALSE(dumps[0].events.empty());
}

TEST(Detectors, QuietFabricRaisesNothing) {
  FabricObservatory obs;
  const int l = obs.add_link("idle", gbps(200));
  for (int b = 0; b < 10; ++b) {
    obs.record_tx(l, milliseconds(static_cast<double>(b)), 10.0);
  }
  const auto report = detect_anomalies(obs, {});
  EXPECT_TRUE(report.alarms.empty());
  EXPECT_EQ(report.first_alarm, -1);
}

// ------------------------------------------- ecmp / flowsim attribution

TEST(Observatory, EcmpAnalysisRecordsFlowsAndReportsUnchanged) {
  ClosTopology topo(small_clos_params());
  Rng rng(derive_seed(7, "fabric.test"));
  const auto flows = ring_traffic(topo, 16, false, rng);
  const auto bare = analyze_ecmp(topo, flows);
  FabricObservatory obs;
  const auto observed = analyze_ecmp(topo, flows, &obs);
  EXPECT_DOUBLE_EQ(bare.mean_throughput_frac, observed.mean_throughput_frac);
  EXPECT_EQ(bare.max_flows_per_uplink, observed.max_flows_per_uplink);
  EXPECT_EQ(obs.flows().size(), flows.size());
  int peak_flows = 0;
  for (int l = 0; l < obs.link_count(); ++l) {
    for (const auto& s : obs.samples(l)) {
      peak_flows = std::max(peak_flows, s.active_flows);
    }
  }
  EXPECT_EQ(peak_flows, bare.max_flows_per_uplink);
}

TEST(Observatory, FlowSimAttributesDeliveredBytesAcrossThePath) {
  ClosTopology topo(small_clos_params());
  FlowSim sim(topo);
  FabricObservatory obs;
  sim.set_observatory(&obs);
  const auto paths = topo.ecmp_paths(0, 1, 0);  // same ToR: one 2-hop path
  ASSERT_EQ(paths.size(), 1u);
  const Bytes size = static_cast<Bytes>(1) << 20;
  sim.add_flow(paths[0], size);
  sim.run();
  ASSERT_EQ(obs.flows().size(), 1u);
  EXPECT_NEAR(obs.flows()[0].bytes, static_cast<double>(size),
              static_cast<double>(size) * 1e-6);
  for (LinkId l : paths[0]) {
    EXPECT_NEAR(obs.series(l).total_tx_bytes(), static_cast<double>(size),
                static_cast<double>(size) * 1e-6);
  }
}

// -------------------------------------------------------------- exports

TEST(Observatory, SketchExportCarriesPerLinkSeries) {
  auto params = victim_params(12);
  FabricObservatory obs;
  params.observatory = &obs;
  run_multi_cc_sim(params, [] { return std::make_unique<Dcqcn>(); });
  const auto sketch = obs.sketch();
  EXPECT_FALSE(sketch.empty());
  int fabric_series = 0;
  double tx_total = 0;
  for (const auto& [key, value] : sketch.series()) {
    EXPECT_EQ(key.rfind("fabric_", 0), 0u) << key;
    ++fabric_series;
    if (key.rfind("fabric_tx_bytes_total", 0) == 0) tx_total += value.counter;
  }
  EXPECT_GE(fabric_series, params.hops);
  EXPECT_GT(tx_total, 0.0);
  EXPECT_GT(sketch.encoded_bytes(), 0);
}

TEST(Observatory, JsonlExportListsLinksSamplesAndFlows) {
  auto params = victim_params(12);
  FabricObservatory obs;
  params.observatory = &obs;
  run_multi_cc_sim(params, [] { return std::make_unique<Dcqcn>(); });
  const auto text = obs.jsonl();
  EXPECT_NE(text.find("fabric-link"), std::string::npos);
  EXPECT_NE(text.find("fabric-sample"), std::string::npos);
  EXPECT_NE(text.find("fabric-flow"), std::string::npos);
}

TEST(Observatory, HeatmapRendersOneRowPerLink) {
  auto params = victim_params(12);
  FabricObservatory obs;
  params.observatory = &obs;
  run_multi_cc_sim(params, [] { return std::make_unique<Dcqcn>(); });
  const auto ascii = obs.heatmap().ascii();
  EXPECT_FALSE(ascii.empty());
}

// ------------------------------------------------------------------ cli

TEST(FabricCli, TopStormNamesTheBottleneckHop) {
  std::ostringstream out, err;
  const int rc = fabric_main({"top", "--scenario", "storm"}, out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("hop2"), std::string::npos) << out.str();
}

TEST(FabricCli, ExportRehashEmitsJsonl) {
  std::ostringstream out, err;
  const int rc = fabric_main({"export", "--scenario", "rehash"}, out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("fabric-link"), std::string::npos);
}

TEST(FabricCli, UnknownCommandFailsWithUsage) {
  std::ostringstream out, err;
  EXPECT_NE(fabric_main({"frobnicate"}, out, err), 0);
  EXPECT_FALSE(err.str().empty());
  // Malformed values fail before the scenario runs, naming position and
  // flag (a trailing value flag used to fall through to the defaults).
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"top", "--intensity", "nan"}, "argument 3 (--intensity)"},
      {{"top", "--top", "3x"}, "argument 3 (--top)"},
      {{"top", "--scenario"}, "argument 3 (--scenario)"},
  };
  for (const auto& [args, named] : cases) {
    std::ostringstream bad_out, bad_err;
    EXPECT_EQ(fabric_main(args, bad_out, bad_err), 1) << named;
    EXPECT_NE(bad_err.str().find(named), std::string::npos) << bad_err.str();
    EXPECT_TRUE(bad_out.str().empty()) << bad_out.str();
  }
}

}  // namespace
}  // namespace ms::net::fabric
