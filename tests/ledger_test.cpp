// RunLedger (telemetry/ledger.h): the accounting contract. Ingesting an
// ft::RunReport must reproduce the workflow's own effective-time
// arithmetic, interval rows must partition the window, the series must
// digest deterministically, and the JSONL round trip must be lossless.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/time.h"
#include "ft/faults.h"
#include "ft/workflow.h"
#include "telemetry/ledger.h"

namespace ms::telemetry {
namespace {

SteadyState steady_175b() {
  SteadyState s;
  s.step_time = seconds(15.0);
  s.mfu = 0.55;
  s.tokens_per_second = 4.0e6;
  return s;
}

/// One ft workflow run plus the ledger that ingested its report.
struct LedgeredRun {
  ft::RunReport report;
  LedgerSeries series;
};

LedgeredRun run_and_ingest(std::uint64_t seed, TimeNs duration = days(2.0)) {
  ft::WorkflowConfig wf;
  wf.nodes = 128;
  Rng fault_rng(derive_seed(seed, "ledger.faults"));
  auto faults = ft::draw_fault_schedule(duration, hours(6.0), wf.nodes,
                                        ft::default_fault_mix(), fault_rng);
  Rng run_rng(derive_seed(seed, "ledger.run"));
  auto report = ft::run_robust_training(wf, duration, faults, run_rng);

  LedgerConfig cfg;
  cfg.duration = duration;
  cfg.interval = hours(1.0);
  RunLedger ledger(cfg);
  ledger.set_steady_state(steady_175b());
  ledger.ingest(report, wf.checkpoint_interval);
  return {report, ledger.finalize()};
}

// ------------------------------------------------------------- closure

TEST(Ledger, EttrClosesAgainstWorkflowAccounting) {
  const auto run = run_and_ingest(0x11);
  ASSERT_GT(run.report.restarts, 0);
  // The ledger replays the workflow's arithmetic; agreement is near-exact,
  // not merely within the fig11 1% gate.
  EXPECT_NEAR(run.series.totals.ettr, run.report.effective_time_ratio, 1e-9);
  EXPECT_EQ(run.series.totals.restarts, run.report.restarts);
}

TEST(Ledger, ClosureHoldsAcrossSeeds) {
  for (std::uint64_t seed : {0x21ull, 0x22ull, 0x23ull}) {
    const auto run = run_and_ingest(seed);
    EXPECT_NEAR(run.series.totals.ettr, run.report.effective_time_ratio,
                1e-9)
        << "seed " << seed;
  }
}

TEST(Ledger, LostTimeDecompositionCoversAllCauses) {
  const auto run = run_and_ingest(0x11);
  const auto& lost = run.series.totals.lost;
  // Fail-stop incidents always produce detection + recovery windows; the
  // workflow also charges periodic checkpoint stalls.
  EXPECT_GT(lost[static_cast<int>(LostCause::kDetection)], 0);
  EXPECT_GT(lost[static_cast<int>(LostCause::kRecovery)], 0);
  EXPECT_GT(lost[static_cast<int>(LostCause::kCkptStall)], 0);
  TimeNs hard = 0;
  for (int c = 0; c < kLostCauseCount; ++c) {
    if (c != static_cast<int>(LostCause::kStraggler)) hard += lost[c];
  }
  const double expect_ettr =
      1.0 - static_cast<double>(hard) / static_cast<double>(run.series.duration);
  EXPECT_NEAR(run.series.totals.ettr, expect_ettr, 1e-12);
}

// ------------------------------------------------------------ intervals

TEST(Ledger, IntervalsPartitionTheWindow) {
  const auto run = run_and_ingest(0x11);
  ASSERT_EQ(run.series.intervals.size(), 48u);  // 2 days / 1 h
  TimeNs prev_end = 0;
  for (const auto& row : run.series.intervals) {
    EXPECT_EQ(row.begin, prev_end);
    EXPECT_GT(row.end, row.begin);
    prev_end = row.end;
    // Clipped per-row accounting: effective + hard lost == row length.
    TimeNs hard = 0;
    for (int c = 0; c < kLostCauseCount; ++c) {
      if (c != static_cast<int>(LostCause::kStraggler)) hard += row.lost[c];
    }
    EXPECT_EQ(row.effective + hard, row.end - row.begin);
    EXPECT_GE(row.goodput_tokens_per_second, 0.0);
    EXPECT_LE(row.mfu, steady_175b().mfu + 1e-12);
  }
  EXPECT_EQ(prev_end, run.series.duration);
  // Cumulative ETTR clips events at the window edge; the totals charge
  // them in full (the ft convention), so clipped >= unclipped.
  EXPECT_GE(run.series.intervals.back().ettr_cum,
            run.series.totals.ettr - 1e-12);
}

TEST(Ledger, RestartMarksLandInTheRightInterval) {
  const auto run = run_and_ingest(0x11);
  int total = 0;
  for (const auto& row : run.series.intervals) total += row.restarts;
  EXPECT_EQ(total, run.report.restarts);
}

// ---------------------------------------------------------- slowdowns

TEST(Ledger, SlowdownDeratesGoodputNotEttr) {
  LedgerConfig cfg;
  cfg.duration = hours(4.0);
  cfg.interval = hours(1.0);
  RunLedger ledger(cfg);
  ledger.set_steady_state(steady_175b());
  // Half the run at half speed: 25% of tokens lost, zero downtime.
  ledger.add_slowdown(0, hours(2.0), 2.0, LostCause::kStraggler);
  const auto series = ledger.finalize();
  EXPECT_DOUBLE_EQ(series.totals.ettr, 1.0);
  EXPECT_NEAR(series.totals.goodput_fraction, 0.75, 1e-9);
  EXPECT_NEAR(series.intervals[0].goodput_tokens_per_second,
              steady_175b().tokens_per_second / 2.0, 1.0);
  EXPECT_NEAR(series.intervals[3].goodput_tokens_per_second,
              steady_175b().tokens_per_second, 1.0);
}

TEST(Ledger, HardLossReducesBothEttrAndGoodput) {
  LedgerConfig cfg;
  cfg.duration = hours(4.0);
  cfg.interval = hours(1.0);
  RunLedger ledger(cfg);
  ledger.set_steady_state(steady_175b());
  ledger.add_lost(hours(1.0), hours(1.0), LostCause::kRecovery);
  ledger.add_restart(hours(1.0));
  const auto series = ledger.finalize();
  EXPECT_NEAR(series.totals.ettr, 0.75, 1e-12);
  EXPECT_NEAR(series.totals.goodput_fraction, 0.75, 1e-9);
  EXPECT_EQ(series.intervals[1].restarts, 1);
  EXPECT_DOUBLE_EQ(series.intervals[1].goodput_tokens_per_second, 0.0);
}

// -------------------------------------------------------- determinism

TEST(Ledger, SameSeedSameDigest) {
  const auto a = run_and_ingest(0x31);
  const auto b = run_and_ingest(0x31);
  EXPECT_EQ(a.series.digest, b.series.digest);
  EXPECT_EQ(ledger_digest(a.series), a.series.digest);
}

TEST(Ledger, DifferentSeedDifferentDigest) {
  const auto a = run_and_ingest(0x31);
  const auto b = run_and_ingest(0x32);
  EXPECT_NE(a.series.digest, b.series.digest);
}

// ------------------------------------------------------------- JSONL

TEST(Ledger, JsonlRoundTripIsLossless) {
  const auto run = run_and_ingest(0x41);
  const std::string text = to_jsonl(run.series);
  LedgerSeries parsed;
  ASSERT_TRUE(parse_ledger_jsonl(text, parsed));
  EXPECT_EQ(parsed.duration, run.series.duration);
  EXPECT_EQ(parsed.interval, run.series.interval);
  ASSERT_EQ(parsed.intervals.size(), run.series.intervals.size());
  for (std::size_t i = 0; i < parsed.intervals.size(); ++i) {
    EXPECT_EQ(parsed.intervals[i].effective,
              run.series.intervals[i].effective);
    EXPECT_EQ(parsed.intervals[i].lost, run.series.intervals[i].lost);
    EXPECT_EQ(parsed.intervals[i].restarts,
              run.series.intervals[i].restarts);
  }
  EXPECT_DOUBLE_EQ(parsed.totals.ettr, run.series.totals.ettr);
  // The recomputed digest of the parsed rows matches the stored one: the
  // serialization dropped nothing the digest folds.
  EXPECT_EQ(ledger_digest(parsed), run.series.digest);
  EXPECT_EQ(parsed.digest, run.series.digest);
}

TEST(Ledger, ParseRejectsGarbage) {
  LedgerSeries out;
  EXPECT_FALSE(parse_ledger_jsonl("not json at all\n", out));
  EXPECT_FALSE(parse_ledger_jsonl("", out));
  // A corrupt digest fails the load instead of reading as 0.
  std::string text = to_jsonl(run_and_ingest(0x41).series);
  text.insert(text.find("\"digest\":\"0x") + 12, "zz");
  EXPECT_FALSE(parse_ledger_jsonl(text, out));
}

// ---------------------------------------------------------- rendering

TEST(Ledger, RenderMentionsTheHeadlineNumbers) {
  const auto run = run_and_ingest(0x41);
  const std::string text = render(run.series, /*chart=*/false);
  EXPECT_NE(text.find("ETTR"), std::string::npos);
  EXPECT_NE(text.find("restarts"), std::string::npos);
  EXPECT_NE(text.find("recovery"), std::string::npos);
  const std::string with_chart = render(run.series, /*chart=*/true);
  EXPECT_GT(with_chart.size(), text.size());
}

TEST(Ledger, DiffIsCleanOnIdenticalRuns) {
  const auto run = run_and_ingest(0x41);
  const std::string diff = ledger_diff(run.series, run.series);
  EXPECT_NE(diff.find("ETTR"), std::string::npos);
}

// --------------------------------------------------------------- CLI

class LedgerCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "ledger_cli_test.jsonl";
    const auto run = run_and_ingest(0x51);
    digest_ = run.series.digest;
    std::ofstream out(path_);
    out << to_jsonl(run.series);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::uint64_t digest_ = 0;
};

TEST_F(LedgerCliTest, RendersALedgerFile) {
  std::ostringstream out, err;
  EXPECT_EQ(ledger_main({path_, "--no-chart"}, out, err), 0);
  EXPECT_NE(out.str().find("ETTR"), std::string::npos);
  EXPECT_TRUE(err.str().empty()) << err.str();
}

TEST_F(LedgerCliTest, DiffAgainstItselfSucceeds) {
  std::ostringstream out, err;
  EXPECT_EQ(ledger_main({"--diff", path_, path_}, out, err), 0);
}

TEST_F(LedgerCliTest, MissingFileFails) {
  std::ostringstream out, err;
  EXPECT_NE(ledger_main({path_ + ".does-not-exist"}, out, err), 0);
  EXPECT_FALSE(err.str().empty());
  // A corrupt ledger fails its load, naming line and field, instead of
  // rendering behind a digest warning or as ETTR 0% over 0 intervals.
  const std::string text = to_jsonl(run_and_ingest(0x51).series);
  const std::string header = text.substr(0, text.find('\n') + 1);
  std::string nan_row = text;
  nan_row.replace(nan_row.find("\"i\":0,"), 6, "\"i\":NaN,");
  const std::size_t restarts = nan_row.find("\"restarts\":");
  nan_row.replace(restarts, nan_row.find(',', restarts) - restarts,
                  "\"restarts\":1e300");
  char digest[24];
  std::snprintf(digest, sizeof(digest), "0x%016" PRIx64, digest_);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {nan_row,
       ": line 2: field \"i\": got nan, expects an integer in [0, 0]\n"},
      {header + "{\"type\":\"summary\",\"lost_ns\":{},\"digest\":\"" +
           digest + "\"}\n",
       ": line 2: field \"ettr\": missing, expects a finite number\n"},
  };
  const std::string bad = path_ + ".bad";
  for (const auto& [corrupt, want] : cases) {
    {
      std::ofstream file(bad);
      file << corrupt;
    }
    std::ostringstream bad_out, bad_err;
    EXPECT_EQ(ledger_main({bad, "--no-chart"}, bad_out, bad_err), 1);
    EXPECT_EQ(bad_err.str(), "msdiag: " + bad + want);
    EXPECT_TRUE(bad_out.str().empty()) << bad_out.str();
  }
  std::remove(bad.c_str());
}

TEST_F(LedgerCliTest, UsageOnNoArgs) {
  std::ostringstream out, err;
  EXPECT_NE(ledger_main({}, out, err), 0);
  // Surplus, missing and unknown arguments name their position and fail
  // before any ledger is rendered.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{path_, "extra"}, "argument 3 (extra)"},
      {{"--diff", path_}, "argument 4 (<run.jsonl>)"},
      {{path_, "--chart"}, "argument 3 (--chart)"},
  };
  for (const auto& [args, named] : cases) {
    std::ostringstream bad_out, bad_err;
    EXPECT_EQ(ledger_main(args, bad_out, bad_err), 1) << named;
    EXPECT_NE(bad_err.str().find(named), std::string::npos) << bad_err.str();
    EXPECT_TRUE(bad_out.str().empty()) << bad_out.str();
  }
}

}  // namespace
}  // namespace ms::telemetry
