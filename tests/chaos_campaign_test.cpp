// Full-size campaign runs (labels: chaos, slow). This is the nightly CI
// surface: a seed-matrix campaign on the production-shaped config must pass
// on the healthy recovery path, the `--canary` weakened detector must fail,
// shrink to a tiny schedule and emit a usable repro, and the
// chaos_campaign CLI must refuse malformed arguments instead of running.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/campaign.h"
#include "core/json.h"
#include "support/tmpdir.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"

namespace ms::chaos {
namespace {

constexpr std::uint64_t kBaseSeed = 0xC405;  // the CLI default

TEST(ChaosCampaign, HealthyMixedCampaignPasses) {
  telemetry::MetricsRegistry metrics;
  ChaosConfig cfg;
  cfg.metrics = &metrics;
  const auto result = run_campaign(cfg, *find_scenario("mixed"), kBaseSeed, 8);
  EXPECT_EQ(result.passed, result.seeds);
  for (const auto& failure : result.failures) {
    ADD_FAILURE() << "seed " << failure.seed << ": " << failure.reason
                  << " (" << failure.repro << ")";
  }
  // The campaign exported its run counter.
  const auto text = telemetry::prometheus_text(metrics.snapshot());
  EXPECT_NE(text.find("chaos_runs_total"), std::string::npos);
  EXPECT_NE(text.find("scenario=\"mixed\""), std::string::npos);
}

TEST(ChaosCampaign, CanaryCampaignFailsAndShrinksSmall) {
  ChaosConfig cfg;
  cfg.canary = true;
  const auto result = run_campaign(cfg, *find_scenario("mixed"), kBaseSeed, 8);
  ASSERT_FALSE(result.failures.empty())
      << "the weakened detector escaped an 8-seed mixed campaign";
  for (const auto& failure : result.failures) {
    // The acceptance bar: the shrinker lands at <= 3 injected faults.
    EXPECT_LE(failure.minimized.size(), 3u) << "seed " << failure.seed;
    EXPECT_GE(failure.minimized_record.undetected_faults, 1)
        << "seed " << failure.seed;
    // The shrunken schedule must keep a fault the canary cannot see.
    bool has_hang = false;
    for (const auto& fault : failure.minimized) {
      has_hang |= fault.kind == FaultKind::kFailStop &&
                  fault.fail_type == ft::FaultType::kGpuHang;
    }
    EXPECT_TRUE(has_hang) << "seed " << failure.seed;
    EXPECT_NE(failure.repro.find("--canary"), std::string::npos);
  }
}

TEST(ChaosCampaign, ReplayingAFailingSeedReproducesTheRecord) {
  ChaosConfig cfg;
  cfg.canary = true;
  const auto result = run_campaign(cfg, *find_scenario("mixed"), kBaseSeed, 8);
  ASSERT_FALSE(result.failures.empty());
  const auto& failure = result.failures.front();
  // What the printed repro command executes: regenerate + rerun that seed.
  const auto* mixed = find_scenario("mixed");
  const auto replayed = run_scenario(cfg, *mixed, failure.seed);
  EXPECT_TRUE(identical(replayed, failure.record));
  EXPECT_EQ(replayed.record_digest, failure.record.record_digest);
  EXPECT_EQ(replayed.engine_digest, failure.record.engine_digest);
}

TEST(ChaosCampaign, FailingSeedArtifactsLandOnDisk) {
  ChaosConfig cfg;
  cfg.canary = true;
  const auto result = run_campaign(cfg, *find_scenario("mixed"), kBaseSeed, 8);
  ASSERT_FALSE(result.failures.empty());
  testsupport::TmpDir dir("chaos-campaign");
  const auto path = write_failure_artifact(dir.path(), result.failures.front());
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  json::Value doc;
  ASSERT_TRUE(json::parse(buf.str(), doc));
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.at("record").is_object());
  EXPECT_EQ(doc.at("repro").str, result.failures.front().repro);
  // The embedded record round-trips through the chaos parser too.
  OutcomeRecord record;
  ASSERT_TRUE(from_json(to_json(result.failures.front().record), record));
  EXPECT_TRUE(identical(record, result.failures.front().record));
}

TEST(ChaosCampaignCli, RunsACampaign) {
  std::ostringstream out, err;
  EXPECT_EQ(chaos_campaign_main({"--scenario", "clean", "--seeds", "2"}, out,
                                err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("scenario clean: 2/2 seeds passed"),
            std::string::npos)
      << out.str();
}

TEST(ChaosCampaignCli, MalformedArgumentsExitTwoWithoutRunning) {
  // Each of these used to run (or replay seed 0) and exit 0.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--scenario", "clean", "--seeds", "x"}, "argument 3 (--seeds)"},
      {{"--scenario", "clean", "--seeds", "-1"}, "argument 3 (--seeds)"},
      {{"--scenario", "clean", "--seed", "banana"}, "argument 3 (--seed)"},
  };
  for (const auto& [args, named] : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(chaos_campaign_main(args, out, err), 2) << named;
    EXPECT_NE(err.str().find(named), std::string::npos) << err.str();
    EXPECT_TRUE(out.str().empty()) << out.str();
  }
}

}  // namespace
}  // namespace ms::chaos
