// Tests for the calibration & trace-replay frontend (`msdiag calibrate`):
// the least-squares core (degenerate systems diagnosed, never NaN), trace
// ingestion across both artifact families (span JSONL and quirky
// Kineto/Chrome JSON), span classification, the round-trip acceptance gate
// (emit with known parameters -> fit recovers them within 1% -> replay
// within tolerance), determinism digests, golden-fixture agreement, and the
// CLI entry point.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "calib/calibrate_cli.h"
#include "calib/classify.h"
#include "calib/fit.h"
#include "calib/ingest.h"
#include "calib/lsq.h"
#include "calib/replay.h"
#include "core/json.h"
#include "diag/artifact.h"
#include "engine/job.h"
#include "telemetry/exporters.h"
#include "telemetry/trace.h"

namespace {

using namespace ms;

// The off-nominal "true" parameters every round-trip test generates with
// (matching the committed golden fixtures and the --emit defaults).
constexpr double kTrueGemm = 0.65;
constexpr double kTrueAttn = 0.50;
constexpr double kTrueMem = 0.95;
constexpr double kTrueNet = 0.85;

std::vector<diag::TraceSpan> emit_fixture_trace(double gemm = kTrueGemm,
                                                double attn = kTrueAttn,
                                                double mem = kTrueMem,
                                                double net = kTrueNet) {
  engine::JobConfig cfg = calib::fixture_config();
  cfg.ops.gemm_efficiency = gemm;
  cfg.ops.attention_efficiency = attn;
  cfg.ops.flash_attention2_efficiency = attn;
  cfg.cluster.gpu.hbm_bw *= mem;
  cfg.network_efficiency = net;
  EXPECT_EQ(engine::validate(cfg), "");
  telemetry::Tracer tracer;
  cfg.tracer = &tracer;
  engine::simulate_iteration(cfg);
  return tracer.spans();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

bool all_params_finite(const calib::CalibrationReport& r) {
  if (!std::isfinite(r.ops.gemm_efficiency) ||
      !std::isfinite(r.ops.attention_efficiency) ||
      !std::isfinite(r.ops.memory_efficiency) ||
      !std::isfinite(r.fit_rel_rms)) {
    return false;
  }
  for (const auto& f : r.coll) {
    if (!std::isfinite(static_cast<double>(f.alpha)) ||
        !std::isfinite(f.bandwidth)) {
      return false;
    }
  }
  for (const auto& res : r.residuals) {
    if (!std::isfinite(res.rel_rms) || !std::isfinite(res.worst_rel)) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ least squares

TEST(CalibLsq, SolvesWellPosedSystemExactly) {
  const std::vector<std::vector<double>> rows = {{1, 0}, {0, 1}, {1, 1}};
  const std::vector<double> y = {2, 3, 5};
  const calib::LsqResult sol = calib::solve_least_squares(rows, y);
  ASSERT_TRUE(sol.ok);
  EXPECT_FALSE(sol.degenerate);
  EXPECT_EQ(sol.rank, 2);
  ASSERT_EQ(sol.x.size(), 2u);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 3.0, 1e-9);
}

TEST(CalibLsq, EmptySystemIsDiagnosedNotNan) {
  const calib::LsqResult sol = calib::solve_least_squares({}, {});
  EXPECT_FALSE(sol.ok);
  EXPECT_EQ(sol.error, "no samples");
}

TEST(CalibLsq, ShapeMismatchesAreDiagnosed) {
  EXPECT_EQ(calib::solve_least_squares({{1.0, 2.0}}, {1.0, 2.0}).error,
            "rows/targets size mismatch");
  EXPECT_EQ(calib::solve_least_squares({{}}, {1.0}).error, "no unknowns");
  EXPECT_EQ(
      calib::solve_least_squares({{1.0, 2.0}, {1.0}}, {1.0, 2.0}).error,
      "ragged design matrix");
}

TEST(CalibLsq, CollinearColumnsDegenerateButFinite) {
  // Second column is 2x the first: rank 1 of 2. The ridge fallback must
  // keep the solution finite and flag the degeneracy.
  const std::vector<std::vector<double>> rows = {{1, 2}, {2, 4}, {3, 6}};
  const std::vector<double> y = {5, 10, 15};
  const calib::LsqResult sol = calib::solve_least_squares(rows, y);
  ASSERT_TRUE(sol.ok);
  EXPECT_TRUE(sol.degenerate);
  EXPECT_TRUE(sol.ridge_used);
  EXPECT_EQ(sol.rank, 1);
  for (double v : sol.x) EXPECT_TRUE(std::isfinite(v));
  // The fit still explains the data along the identifiable direction.
  EXPECT_NEAR(sol.x[0] + 2 * sol.x[1], 5.0, 1e-3);
}

TEST(CalibLsq, AllZeroDesignStaysFinite) {
  const calib::LsqResult sol =
      calib::solve_least_squares({{0, 0}, {0, 0}}, {1, 2});
  if (sol.ok) {
    for (double v : sol.x) EXPECT_TRUE(std::isfinite(v));
    EXPECT_TRUE(sol.degenerate);
  } else {
    EXPECT_FALSE(sol.error.empty());
  }
}

// -------------------------------------------------------------- JSON quirks

TEST(CalibJson, ParsesNanAndInfinityLiterals) {
  // Kineto counter events carry bare NaN/Infinity tokens (Python's
  // json.dump default); the parser must accept them.
  json::Value v;
  ASSERT_TRUE(json::parse(
      R"({"a": NaN, "b": Infinity, "c": -Infinity, "d": 1.5})", v));
  EXPECT_TRUE(std::isnan(v.at("a").number));
  EXPECT_TRUE(std::isinf(v.at("b").number));
  EXPECT_GT(v.at("b").number, 0);
  EXPECT_TRUE(std::isinf(v.at("c").number));
  EXPECT_LT(v.at("c").number, 0);
  EXPECT_DOUBLE_EQ(v.at("d").number, 1.5);
  // Malformed keywords still fail.
  json::Value bad;
  EXPECT_FALSE(json::parse(R"({"a": Nan})", bad));
  EXPECT_FALSE(json::parse(R"({"a": Infinit})", bad));
}

// ---------------------------------------------------------------- ingestion

TEST(CalibIngest, SpanJsonlRoundTripsThroughDetection) {
  const auto spans = emit_fixture_trace();
  ASSERT_FALSE(spans.empty());
  const std::string text = telemetry::jsonl_spans(spans);
  EXPECT_EQ(calib::detect_trace_format(text), calib::TraceFormat::kSpanJsonl);

  calib::IngestResult result;
  std::string error;
  ASSERT_TRUE(calib::ingest_trace(text, result, error)) << error;
  ASSERT_EQ(result.spans.size(), spans.size());
  EXPECT_EQ(result.skipped_events, 0u);
  EXPECT_EQ(result.spans.front().name, spans.front().name);
  EXPECT_EQ(result.spans.front().start, spans.front().start);
  EXPECT_EQ(result.spans.front().detail, spans.front().detail);
}

TEST(CalibIngest, ChromeTraceToleratesKinetoQuirks) {
  // String pids, metadata/instant/counter events, a NaN counter value, a
  // B/E pair, fractional-us timestamps, a missing dur, an unknown phase,
  // and an orphan E — all tolerated, none fatal.
  const std::string text = R"JSON({
    "schemaVersion": 1,
    "traceEvents": [
      {"ph": "M", "name": "process_name", "pid": "rank 3",
       "args": {"name": "python 4021"}},
      {"ph": "C", "name": "GPU Utilization", "pid": "rank 3", "ts": 0.0,
       "args": {"GPU Utilization": NaN}},
      {"ph": "i", "name": "marker", "pid": "rank 3", "tid": "stream 7",
       "ts": 0.5},
      {"ph": "B", "name": "ProfilerStep#0", "pid": "rank 3", "tid": "step",
       "ts": 0.0},
      {"ph": "X", "name": "fwd", "cat": "fwd", "pid": "rank 3",
       "tid": "stream 0", "ts": 1.5, "dur": 2.25,
       "args": {"detail": "s=0 c=0 mb=0 p=f", "External id": 7}},
      {"ph": "E", "name": "ProfilerStep#0", "pid": "rank 3", "tid": "step",
       "ts": 10.0},
      {"ph": "X", "name": "cudaDeviceSynchronize", "pid": "rank 3",
       "tid": "runtime", "ts": 10.0},
      {"ph": "Q", "name": "bogus", "pid": 1, "ts": 0},
      {"ph": "E", "name": "orphan", "pid": 9, "tid": 1, "ts": 3.0}
    ]})JSON";
  EXPECT_EQ(calib::detect_trace_format(text),
            calib::TraceFormat::kChromeTrace);

  calib::IngestResult result;
  std::string error;
  ASSERT_TRUE(calib::ingest_trace(text, result, error)) << error;
  // Kept: the X fwd span, the closed B/E pair, the dur-less X.
  ASSERT_EQ(result.spans.size(), 3u);
  // Skipped: M, C, i, unknown "Q", orphan E.
  EXPECT_EQ(result.skipped_events, 5u);
  EXPECT_FALSE(result.warnings.empty());

  const diag::TraceSpan& fwd = result.spans[0];
  EXPECT_EQ(fwd.name, "fwd");
  EXPECT_EQ(fwd.tag, "fwd");
  EXPECT_EQ(fwd.rank, 3);  // "rank 3" resolves to its digit run
  EXPECT_EQ(fwd.start, 1500);
  EXPECT_EQ(fwd.end, 1500 + 2250);
  // args flattened into the detail grammar: verbatim "detail" plus the
  // sanitized "External id" key.
  EXPECT_NE(fwd.detail.find("p=f"), std::string::npos);
  EXPECT_NE(fwd.detail.find("External_id=7"), std::string::npos);

  const diag::TraceSpan& step = result.spans[1];
  EXPECT_EQ(step.name, "ProfilerStep#0");
  EXPECT_EQ(step.start, 0);
  EXPECT_EQ(step.end, 10000);

  const diag::TraceSpan& sync = result.spans[2];
  EXPECT_EQ(sync.name, "cudaDeviceSynchronize");
  EXPECT_EQ(sync.start, sync.end);  // missing dur -> zero-length span
}

TEST(CalibIngest, BareEventArrayIsAccepted) {
  calib::IngestResult result;
  std::string error;
  ASSERT_TRUE(calib::ingest_trace(
      R"([{"ph": "X", "name": "aten::mm", "pid": 0, "ts": 1, "dur": 2}])",
      result, error))
      << error;
  ASSERT_EQ(result.spans.size(), 1u);
  EXPECT_EQ(result.spans[0].name, "aten::mm");
  // So is a one-line Chrome trace (it used to be taken for span JSONL).
  diag::TimelineTrace timeline;
  timeline.add({0, "fwd", "fwd", 0, 1500, "s=0"});
  ASSERT_TRUE(calib::ingest_trace(timeline.chrome_trace_json(), result, error))
      << error;
  EXPECT_EQ(result.spans.size(), 1u);
  // Non-finite or out-of-range ts/dur/pid/tid skip the event with a
  // warning instead of casting it (both used to be kept as spans).
  ASSERT_TRUE(calib::ingest_trace(
      R"([{"ph":"X","name":"gemm","pid":1e300,"tid":0,"ts":NaN,"dur":5},
          {"ph":"X","name":"gemm","pid":0,"tid":0,"ts":1e300,"dur":-1e300}])",
      result, error))
      << error;
  EXPECT_TRUE(result.spans.empty());
  EXPECT_EQ(result.skipped_events, 2u);
  ASSERT_EQ(result.warnings.size(), 2u);
  EXPECT_EQ(result.warnings[0],
            "event 0: field \"pid\": got 1e+300, expects an integer in [0, "
            "2147483647], skipped");
  EXPECT_NE(result.warnings[1].find("event 1: field \"ts\": got 1e+300"),
            std::string::npos);
}

TEST(CalibIngest, UnknownFormatIsAnError) {
  calib::IngestResult result;
  std::string error;
  EXPECT_FALSE(calib::ingest_trace("not a trace at all", result, error));
  EXPECT_NE(error.find("unrecognized"), std::string::npos);
  EXPECT_FALSE(calib::ingest_trace_file(temp_path("does_not_exist.jsonl"),
                                        result, error));
  EXPECT_NE(error.find("cannot read"), std::string::npos);
}

// ----------------------------------------------------------- classification

diag::TraceSpan make_span(std::string name, std::string tag,
                          std::string detail, TimeNs start = 0,
                          TimeNs end = 1000) {
  diag::TraceSpan s;
  s.name = std::move(name);
  s.tag = std::move(tag);
  s.detail = std::move(detail);
  s.start = start;
  s.end = end;
  return s;
}

TEST(CalibClassify, EngineComputeSpansMapToOpClasses) {
  const std::vector<diag::TraceSpan> spans = {
      make_span("fwd", "fwd", "s=0 c=0 mb=0 p=f"),
      make_span("fwd", "fwd", "s=3 c=1 mb=0 p=f head=1"),
      make_span("bwd", "bwd", "s=0 c=0 mb=0 p=b"),
      make_span("bwd", "bwd", "s=3 c=1 mb=0 p=b head=1"),
      make_span("optimizer", "optimizer", "s=0"),
  };
  const calib::Classification cls = calib::classify_spans(spans);
  EXPECT_EQ(cls.operators, 5u);
  EXPECT_EQ(cls.spans[0].label, "fwd");
  EXPECT_EQ(cls.spans[1].label, "fwd+head");
  EXPECT_EQ(cls.spans[2].label, "bwd");
  EXPECT_EQ(cls.spans[3].label, "bwd+head");
  EXPECT_EQ(cls.spans[4].label, "optimizer");
  EXPECT_EQ(cls.spans[1].op, calib::OpClass::kFwdHead);
  EXPECT_EQ(cls.spans[4].op, calib::OpClass::kOptimizer);
}

TEST(CalibClassify, OpAttributeNamesTheWireCollective) {
  // ZeRO stage <= 1: the span keeps its "dp-reducescatter" name (the
  // DepGraph matches on it) but the wire op is an all-reduce, carried in
  // the `op=` attribute — which must win over the name.
  const std::vector<diag::TraceSpan> spans = {
      make_span("dp-reducescatter", "dp-comm",
                "s=0 grp=dp n=4 op=allreduce B=1048576")};
  const calib::Classification cls = calib::classify_spans(spans);
  ASSERT_EQ(cls.collectives, 1u);
  EXPECT_EQ(cls.spans[0].coll, calib::CollOp::kAllReduce);
  EXPECT_EQ(cls.spans[0].ranks, 4);
  EXPECT_EQ(cls.spans[0].bytes, 1048576);
  EXPECT_EQ(cls.spans[0].label, "allreduce/n=4/inter");
}

TEST(CalibClassify, BucketedCollectiveCarriesCallCount) {
  const std::vector<diag::TraceSpan> spans = {
      make_span("dp-allgather", "dp-comm",
                "grp=dp n=4 op=allgather B=4096 calls=2")};
  const calib::Classification cls = calib::classify_spans(spans);
  ASSERT_EQ(cls.collectives, 1u);
  EXPECT_EQ(cls.spans[0].calls, 2);
  // Design row scales with the call count: one call of allgather over 4
  // ranks is 3 alpha hops; two calls are 6.
  const calib::CollDesignRow row = calib::coll_design_row(cls.spans[0]);
  EXPECT_DOUBLE_EQ(row.lat_coeff, 6.0);
  EXPECT_DOUBLE_EQ(row.byte_coeff, 2.0 * 3.0 / 4.0 * 4096.0);
}

TEST(CalibClassify, DesignRowsFollowRingFormulas) {
  calib::ClassifiedSpan s;
  s.kind = calib::ClassifiedSpan::Kind::kCollective;
  s.ranks = 4;
  s.bytes = 1000;
  s.calls = 1;
  s.coll = calib::CollOp::kAllReduce;
  calib::CollDesignRow row = calib::coll_design_row(s);
  EXPECT_DOUBLE_EQ(row.lat_coeff, 6.0);           // 2(n-1)
  EXPECT_DOUBLE_EQ(row.byte_coeff, 1500.0);       // 2(n-1)/n * S
  s.coll = calib::CollOp::kP2p;
  s.ranks = 2;
  row = calib::coll_design_row(s);
  EXPECT_DOUBLE_EQ(row.lat_coeff, 1.0);
  EXPECT_DOUBLE_EQ(row.byte_coeff, 1000.0);
}

TEST(CalibClassify, RecvSideIsNotDoubleCounted) {
  const std::vector<diag::TraceSpan> spans = {
      make_span("recv", "pp-comm", "p=f mb=0 from=0 to=1 c=0 B=4096"),
      make_span("send", "pp-comm", "p=f mb=0 from=0 to=1 c=0 B=4096")};
  const calib::Classification cls = calib::classify_spans(spans);
  EXPECT_EQ(cls.spans[0].kind, calib::ClassifiedSpan::Kind::kOther);
  EXPECT_EQ(cls.spans[0].label, "recv");
  EXPECT_EQ(cls.spans[1].kind, calib::ClassifiedSpan::Kind::kCollective);
  EXPECT_EQ(cls.spans[1].coll, calib::CollOp::kP2p);
}

TEST(CalibClassify, UnsizedCollectivesCountAsCoverageLoss) {
  const std::vector<diag::TraceSpan> spans = {
      make_span("ncclKernel_AllReduce_RING_LL_Sum_float", "kernel", "")};
  const calib::Classification cls = calib::classify_spans(spans);
  EXPECT_EQ(cls.collectives, 0u);
  EXPECT_EQ(cls.unusable_collectives, 1u);
  EXPECT_EQ(cls.spans[0].label, "comm:allreduce/unsized");
}

TEST(CalibClassify, KernelKeywordsGiveCoverageLabels) {
  const std::vector<diag::TraceSpan> spans = {
      make_span("aten::mm", "", ""),
      make_span("flash_fwd_kernel", "", ""),
      make_span("vectorized_layer_norm_kernel", "", ""),
      make_span("multi_tensor_apply_adam", "", ""),
      make_span("Memcpy DtoH", "", ""),
      make_span("mystery_kernel_42", "", ""),
  };
  const calib::Classification cls = calib::classify_spans(spans);
  EXPECT_EQ(cls.spans[0].label, "kernel:gemm");
  EXPECT_EQ(cls.spans[1].label, "kernel:attention");
  EXPECT_EQ(cls.spans[2].label, "kernel:elementwise");
  EXPECT_EQ(cls.spans[3].label, "kernel:optimizer");
  EXPECT_EQ(cls.spans[4].label, "kernel:memcpy");
  EXPECT_EQ(cls.spans[5].label, "other");
  EXPECT_EQ(cls.other, spans.size());
}

// --------------------------------------------------- fit: round-trip gate

TEST(CalibFit, RoundTripRecoversGeneratingParametersWithinOnePercent) {
  const auto spans = emit_fixture_trace();
  const engine::JobConfig base = calib::fixture_config();
  const calib::CalibrationReport report = calib::fit_trace(spans, base);
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_TRUE(report.ops.fitted);
  EXPECT_FALSE(report.ops.degenerate);

  EXPECT_NEAR(report.ops.gemm_efficiency, kTrueGemm, 0.01 * kTrueGemm);
  EXPECT_NEAR(report.ops.attention_efficiency, kTrueAttn, 0.01 * kTrueAttn);
  EXPECT_NEAR(report.ops.memory_efficiency, kTrueMem, 0.01 * kTrueMem);

  // The fixture's communication is all inter-node (tp=1): fitted alpha-beta
  // must match the cluster spec the trace was generated from.
  ASSERT_EQ(report.coll.size(), 1u);
  const calib::CollectiveFit& inter = report.coll.front();
  EXPECT_EQ(inter.domain, collective::Domain::kInterNode);
  ASSERT_TRUE(inter.fitted);
  EXPECT_FALSE(inter.degenerate);
  const double true_alpha = static_cast<double>(base.cluster.net_latency);
  const double true_bw = kTrueNet * base.cluster.nic_bw;
  EXPECT_NEAR(static_cast<double>(inter.alpha), true_alpha,
              0.01 * true_alpha);
  EXPECT_NEAR(inter.bandwidth, true_bw, 0.01 * true_bw);

  // The generator and the feature model are the same code: residuals are
  // numerically tiny, and far below the 1% recovery bar.
  EXPECT_LT(report.fit_rel_rms, 0.01);
  EXPECT_GT(report.spans_fitted, 0u);
  EXPECT_LT(report.spans_fitted, report.spans_total);

  bool saw_fwd = false, saw_p2p = false;
  for (const auto& r : report.residuals) {
    if (r.cls == "fwd") saw_fwd = r.fitted;
    if (r.cls == "p2p/inter") saw_p2p = r.fitted;
  }
  EXPECT_TRUE(saw_fwd);
  EXPECT_TRUE(saw_p2p);
}

TEST(CalibFit, DigestIsStableAcrossIndependentRuns) {
  const engine::JobConfig base = calib::fixture_config();
  const calib::CalibrationReport a =
      calib::fit_trace(emit_fixture_trace(), base);
  const calib::CalibrationReport b =
      calib::fit_trace(emit_fixture_trace(), base);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_NE(a.digest, 0u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.spans_fitted, b.spans_fitted);
}

TEST(CalibFit, EmptyTraceIsDiagnosed) {
  const calib::CalibrationReport report =
      calib::fit_trace({}, calib::fixture_config());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("empty trace"), std::string::npos);
  EXPECT_TRUE(all_params_finite(report));
}

TEST(CalibFit, InvalidBaseConfigIsDiagnosed) {
  engine::JobConfig bad = calib::fixture_config();
  bad.par.pp = 7;  // 13B layer count is not divisible by 7 stages
  const calib::CalibrationReport report =
      calib::fit_trace(emit_fixture_trace(), bad);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("invalid base config"), std::string::npos);
}

TEST(CalibFit, OneClassTraceIsDegenerateNeverNan) {
  // Only plain fwd spans: one feature row for three unknowns. The fit must
  // flag the rank deficiency and still return finite parameters.
  std::vector<diag::TraceSpan> fwd_only;
  for (const auto& s : emit_fixture_trace()) {
    if (s.tag == "fwd" && s.detail.find("head=") == std::string::npos) {
      fwd_only.push_back(s);
    }
  }
  ASSERT_FALSE(fwd_only.empty());
  const calib::CalibrationReport report =
      calib::fit_trace(fwd_only, calib::fixture_config());
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_TRUE(report.ops.fitted);
  EXPECT_TRUE(report.ops.degenerate);
  EXPECT_TRUE(report.ops.ridge_used);
  EXPECT_NE(report.ops.note.find("ridge"), std::string::npos);
  EXPECT_TRUE(report.coll.empty());
  EXPECT_TRUE(all_params_finite(report));
}

TEST(CalibFit, SingleShapeCollectiveIsDegenerateNeverNan) {
  // Only p2p sends of one message size: alpha and 1/bandwidth are
  // collinear. Whatever the ridge produces must be flagged and finite.
  std::vector<diag::TraceSpan> sends;
  for (const auto& s : emit_fixture_trace()) {
    if (s.tag == "pp-comm" && s.name == "send") sends.push_back(s);
  }
  ASSERT_FALSE(sends.empty());
  const calib::CalibrationReport report =
      calib::fit_trace(sends, calib::fixture_config());
  ASSERT_EQ(report.coll.size(), 1u);
  const calib::CollectiveFit& fit = report.coll.front();
  EXPECT_TRUE(fit.degenerate || !fit.fitted);
  EXPECT_FALSE(fit.note.empty());
  EXPECT_TRUE(all_params_finite(report));
}

TEST(CalibFit, ApplyFitWritesParametersBack) {
  const engine::JobConfig base = calib::fixture_config();
  const calib::CalibrationReport report =
      calib::fit_trace(emit_fixture_trace(), base);
  ASSERT_TRUE(report.ok);

  engine::JobConfig cfg = calib::fixture_config();
  const double nominal_hbm = cfg.cluster.gpu.hbm_bw;
  calib::apply_fit(report, cfg);
  EXPECT_NEAR(cfg.ops.gemm_efficiency, kTrueGemm, 0.01 * kTrueGemm);
  EXPECT_NEAR(cfg.ops.attention_efficiency, kTrueAttn, 0.01 * kTrueAttn);
  EXPECT_NEAR(cfg.ops.flash_attention2_efficiency, kTrueAttn,
              0.01 * kTrueAttn);
  EXPECT_NEAR(cfg.cluster.gpu.hbm_bw, kTrueMem * nominal_hbm,
              0.01 * kTrueMem * nominal_hbm);
  EXPECT_NEAR(cfg.network_efficiency, kTrueNet, 0.01 * kTrueNet);
  EXPECT_NEAR(static_cast<double>(cfg.cluster.net_latency),
              static_cast<double>(base.cluster.net_latency),
              0.01 * static_cast<double>(base.cluster.net_latency));

  // Degenerate groups must leave the config untouched.
  calib::CalibrationReport degenerate = report;
  degenerate.ops.degenerate = true;
  degenerate.coll.front().degenerate = true;
  engine::JobConfig untouched = calib::fixture_config();
  const double before = untouched.ops.gemm_efficiency;
  calib::apply_fit(degenerate, untouched);
  EXPECT_DOUBLE_EQ(untouched.ops.gemm_efficiency, before);
}

TEST(CalibFit, ReportRenderersCoverParametersAndResiduals) {
  const calib::CalibrationReport report =
      calib::fit_trace(emit_fixture_trace(), calib::fixture_config());
  ASSERT_TRUE(report.ok);

  const std::string table = calib::report_table(report);
  EXPECT_NE(table.find("gemm_efficiency"), std::string::npos);
  EXPECT_NE(table.find("alpha/inter"), std::string::npos);
  EXPECT_NE(table.find("Per-class residuals"), std::string::npos);
  EXPECT_NE(table.find("digest"), std::string::npos);

  // Every JSONL line must parse as standalone JSON with a record type.
  const std::string jsonl = calib::report_jsonl(report);
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t params = 0, residuals = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    json::Value v;
    ASSERT_TRUE(json::parse(line, v)) << line;
    const std::string record = v.at("record").str;
    if (record == "calib_params") {
      ++params;
      EXPECT_NEAR(v.at("ops").at("gemm_efficiency").number, kTrueGemm,
                  0.01 * kTrueGemm);
      EXPECT_EQ(v.at("digest").str, std::to_string(report.digest));
    } else {
      EXPECT_EQ(record, "calib_residual");
      ++residuals;
    }
  }
  EXPECT_EQ(params, 1u);
  EXPECT_EQ(residuals, report.residuals.size());
}

// ------------------------------------------------------- replay validation

TEST(CalibReplay, FittedParametersReproduceTheTrace) {
  const auto spans = emit_fixture_trace();
  const engine::JobConfig base = calib::fixture_config();
  const calib::CalibrationReport report = calib::fit_trace(spans, base);
  ASSERT_TRUE(report.ok);

  const calib::ReplayResult replay =
      calib::replay_fit(spans, report, base, 0.02);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_TRUE(replay.within_tolerance);
  EXPECT_LT(replay.rel_error, 0.02);
  EXPECT_DOUBLE_EQ(replay.tolerance, 0.02);
  EXPECT_GT(replay.trace_step, 0);
  EXPECT_GT(replay.sim_step, 0);
  EXPECT_NE(replay.digest, 0u);

  // The blame tiling must agree too, not just the total.
  ASSERT_FALSE(replay.shares.empty());
  EXPECT_LT(replay.max_share_delta, 0.05);
  for (const auto& share : replay.shares) {
    EXPECT_FALSE(share.cause.empty());
    EXPECT_TRUE(std::isfinite(share.delta()));
  }

  const std::string table = calib::replay_table(replay);
  EXPECT_NE(table.find("step"), std::string::npos);
  json::Value v;
  ASSERT_TRUE(json::parse(calib::replay_jsonl(replay), v));
  EXPECT_EQ(v.at("record").str, "calib_replay");
}

TEST(CalibReplay, MisfitParametersAreOutOfTolerance) {
  // Force a wrong fit: halve the fitted GEMM efficiency. Replay must
  // detect that the simulator no longer reproduces the trace.
  const auto spans = emit_fixture_trace();
  const engine::JobConfig base = calib::fixture_config();
  calib::CalibrationReport report = calib::fit_trace(spans, base);
  ASSERT_TRUE(report.ok);
  report.ops.gemm_efficiency *= 0.5;
  const calib::ReplayResult replay =
      calib::replay_fit(spans, report, base, 0.02);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_FALSE(replay.within_tolerance);
  EXPECT_GT(replay.rel_error, 0.02);
}

// ------------------------------------------------------------ CLI frontend

TEST(CalibrateCli, EmitThenCalibrateRoundTripsThroughFiles) {
  const std::string trace = temp_path("calib_cli_trace.jsonl");
  const std::string fitted = temp_path("calib_cli_fitted.jsonl");
  std::ostringstream out, err;
  ASSERT_EQ(calib::calibrate_main({"--emit", trace}, out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("wrote"), std::string::npos);

  std::ostringstream out2, err2;
  ASSERT_EQ(calib::calibrate_main({trace, "--fitted-out", fitted}, out2,
                                  err2),
            0)
      << err2.str();
  EXPECT_NE(out2.str().find("Fitted parameters"), std::string::npos);
  EXPECT_NE(out2.str().find("Replay validation"), std::string::npos);

  // The artifact written for CI holds both the fit and the replay records.
  std::string artifact;
  ASSERT_TRUE(diag::read_text_file(fitted, artifact));
  EXPECT_NE(artifact.find("\"record\":\"calib_params\""), std::string::npos);
  EXPECT_NE(artifact.find("\"record\":\"calib_replay\""), std::string::npos);

  // --json mode prints the same artifact to stdout.
  std::ostringstream out3, err3;
  ASSERT_EQ(calib::calibrate_main({trace, "--json", "--no-replay"}, out3,
                                  err3),
            0);
  EXPECT_NE(out3.str().find("\"record\":\"calib_params\""),
            std::string::npos);
  EXPECT_EQ(out3.str().find("\"record\":\"calib_replay\""),
            std::string::npos);
}

TEST(CalibrateCli, BadInvocationsExitNonZero) {
  std::ostringstream out, err;
  EXPECT_EQ(calib::calibrate_main({}, out, err), 1);
  EXPECT_NE(err.str().find("msdiag calibrate"), std::string::npos);
  EXPECT_EQ(calib::calibrate_main({"--bogus-flag"}, out, err), 1);
  EXPECT_EQ(calib::calibrate_main({"t.jsonl", "--preset", "nope"}, out, err),
            1);
  EXPECT_EQ(calib::calibrate_main({temp_path("missing_trace.jsonl")}, out,
                                  err),
            1);
  // Malformed values fail before anything is simulated or written, naming
  // position and flag (NaN used to be simulated, `x` read as 0).
  const std::string trace = temp_path("calib_cli_never_written.jsonl");
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--emit", trace, "--gemm-eff", "nan"}, "argument 4 (--gemm-eff)"},
      {{trace, "--tolerance", "x"}, "argument 3 (--tolerance)"},
  };
  for (const auto& [args, named] : cases) {
    std::ostringstream bad_out, bad_err;
    EXPECT_EQ(calib::calibrate_main(args, bad_out, bad_err), 1) << named;
    EXPECT_NE(bad_err.str().find(named), std::string::npos) << bad_err.str();
    EXPECT_TRUE(bad_out.str().empty()) << bad_out.str();
  }
  std::ostringstream demo_out, demo_err;
  EXPECT_EQ(calib::demo_main({trace, "--straggler", "3", "--factor", "nan"},
                             demo_out, demo_err),
            1);
  EXPECT_NE(demo_err.str().find("argument 5 (--factor)"), std::string::npos)
      << demo_err.str();
  EXPECT_TRUE(demo_out.str().empty());
  std::string unused;
  EXPECT_FALSE(diag::read_text_file(trace, unused));
  // Nesting past json::kMaxDepth is a malformed trace, not a crash.
  const std::string deep = temp_path("calib_cli_deep.json");
  ASSERT_TRUE(diag::write_text_file(deep, std::string(1'000'000, '[')));
  std::ostringstream deep_out, deep_err;
  EXPECT_EQ(calib::calibrate_main({deep}, deep_out, deep_err), 1);
  EXPECT_NE(deep_err.str().find("malformed"), std::string::npos)
      << deep_err.str();
  // A corrupt span JSONL names file, line and field.
  const std::string bad = temp_path("calib_cli_bad.jsonl");
  ASSERT_TRUE(diag::write_text_file(
      bad,
      "{\"type\":\"span\",\"rank\":0,\"name\":\"fwd\",\"tag\":\"fwd\","
      "\"start_ns\":0,\"end_ns\":5}\n{\"type\":\"span\",\"rank\":-1}\n"));
  std::ostringstream bad_out, bad_err;
  EXPECT_EQ(calib::calibrate_main({bad}, bad_out, bad_err), 1);
  EXPECT_EQ(bad_err.str(), "msdiag calibrate: " + bad +
                               ": line 2: field \"rank\": got -1, expects an "
                               "integer in [0, 2147483647]\n");
  EXPECT_TRUE(bad_out.str().empty()) << bad_out.str();
}

TEST(CalibrateCli, DemoWritesASeededStragglerTrace) {
  const std::string trace = temp_path("calib_cli_demo.jsonl");
  std::ostringstream out, err;
  ASSERT_EQ(calib::demo_main({trace, "--straggler", "3"}, out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("wrote " + trace), std::string::npos);
  std::string text;
  ASSERT_TRUE(diag::read_text_file(trace, text));
  EXPECT_NE(text.find("\"type\":\"span\""), std::string::npos);
}

TEST(CalibrateCli, OutOfToleranceReplayExitsOne) {
  // Calibrating a fixture trace against the demo preset forces a workload
  // mismatch the replay cannot hide (the demo step runs far more
  // microbatches than the trace holds): the CLI must exit 1 so CI catches
  // fidelity drift.
  const std::string trace = temp_path("calib_cli_mismatch_trace.jsonl");
  std::ostringstream out, err;
  ASSERT_EQ(calib::calibrate_main({"--emit", trace}, out, err), 0);
  std::ostringstream out2, err2;
  EXPECT_EQ(calib::calibrate_main({trace, "--preset", "demo"}, out2, err2),
            1);
  EXPECT_NE(err2.str().find("replay"), std::string::npos);
  // Skipping the replay skips the gate: the same mismatch exits 0.
  std::ostringstream out3, err3;
  EXPECT_EQ(calib::calibrate_main({trace, "--preset", "demo", "--no-replay"},
                                  out3, err3),
            0)
      << err3.str();
}

// ---------------------------------------------------------- golden fixtures

TEST(CalibGolden, SelfTraceAndKinetoReExportFitIdentically) {
  const std::string dir = std::string(MS_GOLDEN_DIR) + "/calib";
  calib::IngestResult self, kineto;
  std::string error;
  ASSERT_TRUE(
      calib::ingest_trace_file(dir + "/self_trace.jsonl", self, error))
      << error;
  ASSERT_TRUE(
      calib::ingest_trace_file(dir + "/kineto_trace.json", kineto, error))
      << error;
  ASSERT_FALSE(self.spans.empty());
  // The Kineto flavor carries quirk events on top of the same real spans.
  EXPECT_GT(kineto.spans.size(), self.spans.size());
  EXPECT_GT(kineto.skipped_events, 0u);

  const engine::JobConfig base = calib::fixture_config();
  const calib::CalibrationReport a = calib::fit_trace(self.spans, base);
  const calib::CalibrationReport b = calib::fit_trace(kineto.spans, base);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;

  // The committed fixtures were generated with the canonical parameters.
  EXPECT_NEAR(a.ops.gemm_efficiency, kTrueGemm, 0.01 * kTrueGemm);
  EXPECT_NEAR(a.ops.attention_efficiency, kTrueAttn, 0.01 * kTrueAttn);
  EXPECT_NEAR(a.ops.memory_efficiency, kTrueMem, 0.01 * kTrueMem);

  // Cosmetic trace differences (metadata, counters, wrapper spans) must
  // not perturb the determinism digest: both formats fit identically.
  EXPECT_EQ(a.spans_fitted, b.spans_fitted);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(CalibGolden, CliCalibratesTheKinetoFixture) {
  const std::string path =
      std::string(MS_GOLDEN_DIR) + "/calib/kineto_trace.json";
  std::ostringstream out, err;
  EXPECT_EQ(calib::calibrate_main({path}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("events skipped"), std::string::npos);
  EXPECT_NE(out.str().find("Replay validation"), std::string::npos);

  // The same fixture with its first span renamed "fwd\nkernel": --json
  // must still print one parseable record per line, worst_span included.
  std::string text;
  ASSERT_TRUE(diag::read_text_file(path, text));
  const std::string name = "\"name\": \"fwd\"";
  const auto at = text.find(name);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, name.size(), "\"name\": \"fwd\\nkernel\"");
  const std::string renamed = temp_path("calib_kineto_newline.json");
  ASSERT_TRUE(diag::write_text_file(renamed, text));
  std::ostringstream json_out, json_err;
  EXPECT_EQ(calib::calibrate_main({renamed, "--json"}, json_out, json_err), 0)
      << json_err.str();
  std::istringstream lines(json_out.str());
  std::string line;
  int records = 0;
  bool saw_renamed = false;
  while (std::getline(lines, line)) {
    json::Value record;
    std::size_t offset = 0;
    EXPECT_TRUE(json::parse(line, record, &offset))
        << "byte " << offset << ": " << line;
    ++records;
    if (line.find("fwd\\nkernel") != std::string::npos) saw_renamed = true;
  }
  EXPECT_GT(records, 1);
  EXPECT_TRUE(saw_renamed) << json_out.str();
}

}  // namespace
