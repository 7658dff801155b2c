// Tier-1 unit coverage for the chaos harness: schedules, scenarios,
// outcome records, the runner, the oracle and the shrinker — all on the
// compressed test configuration so the suite stays fast.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "chaos/campaign.h"
#include "chaos/config.h"
#include "chaos/outcome.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "chaos/schedule.h"
#include "core/json.h"
#include "support/builders.h"
#include "support/digest.h"
#include "support/tmpdir.h"
#include "telemetry/metrics.h"

namespace ms::chaos {
namespace {

using testsupport::small_chaos_config;

InjectedFault fail_stop_at(TimeNs at, int node, ft::FaultType type) {
  InjectedFault f;
  f.at = at;
  f.kind = FaultKind::kFailStop;
  f.node = node;
  f.fail_type = type;
  return f;
}

// ------------------------------------------------------------- schedule

TEST(Schedule, SortIsCanonical) {
  FaultSchedule s;
  s.push_back(fail_stop_at(minutes(10.0), 3, ft::FaultType::kCudaError));
  s.push_back(fail_stop_at(minutes(5.0), 7, ft::FaultType::kSegFault));
  InjectedFault stall;
  stall.at = minutes(5.0);
  stall.kind = FaultKind::kCkptStall;
  stall.duration = seconds(30.0);
  s.push_back(stall);
  sort_schedule(s);
  EXPECT_EQ(s[0].at, minutes(5.0));
  EXPECT_EQ(s[0].kind, FaultKind::kFailStop);  // kFailStop sorts before stall
  EXPECT_EQ(s[1].kind, FaultKind::kCkptStall);
  EXPECT_EQ(s[2].at, minutes(10.0));
}

TEST(Schedule, DigestSeparatesFieldChanges) {
  FaultSchedule a{fail_stop_at(minutes(1.0), 0, ft::FaultType::kCudaError)};
  FaultSchedule b = a;
  EXPECT_EQ(schedule_digest(a), schedule_digest(b));
  b[0].node = 1;
  EXPECT_NE(schedule_digest(a), schedule_digest(b));
  b = a;
  b[0].at += 1;
  EXPECT_NE(schedule_digest(a), schedule_digest(b));
  EXPECT_NE(schedule_digest(a), schedule_digest({}));
}

TEST(Schedule, DescribeNamesEveryKind) {
  std::set<std::string> names;
  for (FaultKind kind :
       {FaultKind::kFailStop, FaultKind::kStraggler, FaultKind::kLinkFlap,
        FaultKind::kCkptStall, FaultKind::kPfcStorm, FaultKind::kEcmpRehash}) {
    names.insert(fault_kind_name(kind));
    InjectedFault f;
    f.kind = kind;
    EXPECT_NE(describe(f).find(fault_kind_name(kind)), std::string::npos);
  }
  EXPECT_EQ(names.size(), 6u);
}

// ------------------------------------------------------------- scenarios

TEST(Scenario, RegistryHasTheCanonicalSet) {
  const auto& all = scenarios();
  EXPECT_GE(all.size(), 6u);
  for (const char* name :
       {"clean", "failstop-midstep", "allgather-flap", "straggler-ckpt-stall",
        "ecmp-cascade", "pfc-storm", "mixed"}) {
    EXPECT_NE(find_scenario(name), nullptr) << name;
  }
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
}

TEST(Scenario, GeneratedSchedulesAreSortedAndSeedStable) {
  const auto cfg = small_chaos_config();
  for (const auto& scenario : scenarios()) {
    const auto a = generate_schedule(cfg, scenario, 42);
    const auto b = generate_schedule(cfg, scenario, 42);
    EXPECT_EQ(schedule_digest(a), schedule_digest(b)) << scenario.name;
    for (std::size_t i = 1; i < a.size(); ++i) {
      EXPECT_LE(a[i - 1].at, a[i].at) << scenario.name;
    }
    for (const auto& fault : a) {
      EXPECT_GE(fault.at, 0) << scenario.name;
      EXPECT_LT(fault.at, cfg.duration) << scenario.name;
    }
  }
}

TEST(Scenario, DifferentSeedsDiverge) {
  const auto cfg = small_chaos_config();
  const auto* mixed = find_scenario("mixed");
  ASSERT_NE(mixed, nullptr);
  EXPECT_NE(schedule_digest(generate_schedule(cfg, *mixed, 1)),
            schedule_digest(generate_schedule(cfg, *mixed, 2)));
}

// ------------------------------------------------------------- outcomes

OutcomeRecord sample_record() {
  const auto cfg = small_chaos_config();
  const auto* s = find_scenario("straggler-ckpt-stall");
  return run_scenario(cfg, *s, 7);
}

TEST(Outcome, JsonRoundTripsBitExactly) {
  const auto record = sample_record();
  OutcomeRecord parsed;
  ASSERT_TRUE(from_json(to_json(record), parsed));
  EXPECT_TRUE(identical(record, parsed));
  // A full 64-bit seed (written as a negative int64) comes back exactly; a
  // double-based reader would round it.
  auto wide = record;
  wide.seed = 0xF00DF00DF00DF00Dull;
  wide.record_digest = compute_record_digest(wide);
  ASSERT_TRUE(from_json(to_json(wide), parsed));
  EXPECT_EQ(parsed.seed, wide.seed);
  EXPECT_TRUE(identical(wide, parsed));
  // A corrupt number fails the load instead of reading a prefix or 0.
  for (const auto& [field, junk] :
       {std::pair{"\"faults_injected\":", "1.5e"},
        std::pair{"\"restarts\":", "-1"},
        std::pair{"\"detect_latency\":{\"count\":", "1e300,\"x\":"},
        std::pair{"\"record_digest\":\"", "zz"}}) {
    std::string text = to_json(record);
    text.insert(text.find(field) + std::string(field).size(), junk);
    EXPECT_FALSE(from_json(text, parsed)) << text;
  }
}

TEST(Outcome, JsonIsWellFormed) {
  json::Value doc;
  ASSERT_TRUE(json::parse(to_json(sample_record()), doc));
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.has("scenario"));
  EXPECT_TRUE(doc.has("effective_time_ratio"));
  EXPECT_TRUE(doc.has("record_digest"));
  EXPECT_TRUE(doc.at("detect_latency").is_object());
}

TEST(Outcome, DigestCoversEveryScalarField) {
  auto record = sample_record();
  const auto base = compute_record_digest(record);
  auto mutated = record;
  mutated.restarts += 1;
  EXPECT_NE(compute_record_digest(mutated), base);
  mutated = record;
  mutated.effective_time_ratio += 1e-9;
  EXPECT_NE(compute_record_digest(mutated), base);
  mutated = record;
  mutated.recovery_latency.p95 += 1;
  EXPECT_NE(compute_record_digest(mutated), base);
}

TEST(Outcome, DiffRespectsTolerances) {
  const auto want = sample_record();
  auto got = want;
  EXPECT_TRUE(diff_outcomes(got, want, Tolerance{}).empty());
  got.effective_time_ratio = want.effective_time_ratio + 0.5;
  EXPECT_FALSE(diff_outcomes(got, want, Tolerance{}).empty());
  got = want;
  got.restarts += 1;  // counts compare exactly
  EXPECT_FALSE(diff_outcomes(got, want, Tolerance{}).empty());
}

// ------------------------------------------------------------- runner

TEST(Runner, CleanRunIsPerfect) {
  const auto cfg = small_chaos_config();
  const auto record = run_scenario(cfg, *find_scenario("clean"), 1);
  EXPECT_DOUBLE_EQ(record.effective_time_ratio, 1.0);
  EXPECT_DOUBLE_EQ(record.slowdown_factor, 1.0);
  EXPECT_EQ(record.restarts, 0);
  EXPECT_EQ(record.undetected_faults, 0);
  EXPECT_EQ(record.steps_lost, 0);
}

TEST(Runner, SingleFailStopRecoversAndCosts) {
  const auto cfg = small_chaos_config();
  const FaultSchedule schedule{
      fail_stop_at(minutes(8.0), 3, ft::FaultType::kCudaError)};
  const auto record = run_schedule(cfg, "unit", 11, schedule);
  EXPECT_EQ(record.restarts, 1);
  EXPECT_EQ(record.undetected_faults, 0);
  EXPECT_LT(record.effective_time_ratio, 1.0);
  EXPECT_GT(record.effective_time_ratio, 0.0);
  EXPECT_EQ(record.detect_latency.count, 1);
  // Explicit CUDA errors surface within one heartbeat interval.
  EXPECT_LE(record.detect_latency.max, cfg.detector.heartbeat_interval * 2);
  EXPECT_GT(record.steps_lost, 0);  // 8 min past the last checkpoint redone
}

TEST(Runner, SameSeedSameRecord) {
  const auto cfg = small_chaos_config();
  const auto* mixed = find_scenario("mixed");
  auto [a, b] = testsupport::twice(
      [&] { return run_scenario(cfg, *mixed, 23); });
  EXPECT_TRUE(identical(a, b));
  EXPECT_EQ(a.record_digest, b.record_digest);
  EXPECT_EQ(a.engine_digest, b.engine_digest);
}

TEST(Runner, AddingAFaultNeverHelps) {
  const auto cfg = small_chaos_config();
  FaultSchedule schedule;
  InjectedFault straggler;
  straggler.at = minutes(3.0);
  straggler.kind = FaultKind::kStraggler;
  straggler.node = 2;
  straggler.magnitude = 0.1;
  schedule.push_back(straggler);
  const auto base = run_schedule(cfg, "unit", 5, schedule);
  InjectedFault stall;
  stall.at = minutes(12.0);
  stall.kind = FaultKind::kCkptStall;
  stall.duration = minutes(2.0);
  schedule.push_back(stall);
  const auto worse = run_schedule(cfg, "unit", 5, schedule);
  EXPECT_LE(worse.effective_time_ratio, base.effective_time_ratio);
}

// --------------------------------------------------------- oracle/shrink

TEST(Campaign, OracleJudgesRecords) {
  auto cfg = small_chaos_config();
  cfg.min_effective_ratio = 0.2;
  OutcomeRecord record;
  record.effective_time_ratio = 0.8;
  EXPECT_TRUE(evaluate_outcome(cfg, record).pass);
  record.undetected_faults = 1;
  EXPECT_FALSE(evaluate_outcome(cfg, record).pass);
  record.undetected_faults = 0;
  record.effective_time_ratio = 0.1;  // below the configured floor
  EXPECT_FALSE(evaluate_outcome(cfg, record).pass);
  record.effective_time_ratio = 0.8;
  record.nccl_errors = 1;  // an abort with no restart was lost
  record.restarts = 0;
  EXPECT_FALSE(evaluate_outcome(cfg, record).pass);
}

TEST(Campaign, CleanCampaignPasses) {
  const auto cfg = small_chaos_config();
  const auto result = run_campaign(cfg, *find_scenario("clean"), 99, 3);
  EXPECT_EQ(result.passed, 3);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(result.records.size(), 3u);
}

TEST(Campaign, ParallelFanOutIsBitIdenticalToSerial) {
  // The seed fan-out runs workers over per-seed slots; records, digests,
  // pass counts and failure sets must not depend on the worker count.
  auto cfg = small_chaos_config();
  cfg.parallel_seeds = 1;
  const auto serial = run_campaign(cfg, *find_scenario("mixed"), 4242, 4);
  cfg.parallel_seeds = 4;
  const auto parallel = run_campaign(cfg, *find_scenario("mixed"), 4242, 4);
  EXPECT_EQ(serial.passed, parallel.passed);
  EXPECT_EQ(serial.failures.size(), parallel.failures.size());
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].seed, parallel.records[i].seed) << i;
    EXPECT_EQ(serial.records[i].record_digest,
              parallel.records[i].record_digest)
        << i;
  }
}

TEST(Campaign, AttachedSinksForceSerialButKeepResults) {
  // With a metrics registry attached the fan-out must drop to one thread
  // (registration order is part of the exported surface) and still count
  // every run exactly once.
  telemetry::MetricsRegistry metrics;
  auto cfg = small_chaos_config();
  cfg.metrics = &metrics;
  cfg.parallel_seeds = 4;  // must be ignored while sinks are attached
  const auto result = run_campaign(cfg, *find_scenario("clean"), 7, 3);
  EXPECT_EQ(result.passed, 3);
  const auto snap = metrics.snapshot();
  const auto* runs = snap.find(
      "chaos_runs_total", {{"outcome", "pass"}, {"scenario", "clean"}});
  ASSERT_NE(runs, nullptr);
  EXPECT_DOUBLE_EQ(runs->value, 3.0);
}

TEST(Campaign, CanaryShrinksToTheHangAlone) {
  auto cfg = small_chaos_config();
  cfg.canary = true;  // heartbeat-timeout detection disabled
  FaultSchedule schedule;
  schedule.push_back(fail_stop_at(minutes(5.0), 3, ft::FaultType::kGpuHang));
  InjectedFault straggler;
  straggler.at = minutes(7.0);
  straggler.kind = FaultKind::kStraggler;
  straggler.node = 5;
  straggler.magnitude = 0.1;
  schedule.push_back(straggler);
  InjectedFault storm;
  storm.at = minutes(15.0);
  storm.kind = FaultKind::kPfcStorm;
  storm.magnitude = 0.5;
  schedule.push_back(storm);
  sort_schedule(schedule);

  const auto record = run_schedule(cfg, "canary", 3, schedule);
  EXPECT_GE(record.undetected_faults, 1);
  ASSERT_FALSE(evaluate_outcome(cfg, record).pass);

  const auto minimal = shrink_schedule(cfg, "canary", 3, schedule);
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal[0].kind, FaultKind::kFailStop);
  EXPECT_EQ(minimal[0].fail_type, ft::FaultType::kGpuHang);
}

TEST(Campaign, HealthyDetectorCatchesTheHang) {
  const auto cfg = small_chaos_config();  // canary OFF
  const FaultSchedule schedule{
      fail_stop_at(minutes(5.0), 3, ft::FaultType::kGpuHang)};
  const auto record = run_schedule(cfg, "canary", 3, schedule);
  EXPECT_EQ(record.undetected_faults, 0);
  EXPECT_EQ(record.restarts, 1);
  EXPECT_TRUE(evaluate_outcome(cfg, record).pass);
}

TEST(Campaign, ReproCommandNamesScenarioAndSeed) {
  const auto cmd = repro_command("mixed", 1234567, true);
  EXPECT_EQ(cmd, "chaos_campaign --scenario mixed --seed 1234567 --canary");
  EXPECT_EQ(repro_command("clean", 1, false),
            "chaos_campaign --scenario clean --seed 1");
}

TEST(Campaign, FailureArtifactIsParseableJson) {
  testsupport::TmpDir dir("chaos-artifact");
  CampaignFailure failure;
  failure.seed = 77;
  failure.record = sample_record();
  failure.record.scenario = "unit";
  failure.reason = "synthetic";
  failure.minimized.push_back(
      fail_stop_at(minutes(2.0), 1, ft::FaultType::kGpuHang));
  failure.minimized_record = failure.record;
  failure.repro = repro_command("unit", 77, false);
  const auto path = write_failure_artifact(dir.path(), failure);
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("chaos-unit-seed77.json"), std::string::npos);

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  json::Value doc;
  ASSERT_TRUE(json::parse(buf.str(), doc));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("reason").str, "synthetic");
  EXPECT_EQ(doc.at("repro").str, failure.repro);
  EXPECT_TRUE(doc.at("record").is_object());
  EXPECT_EQ(doc.at("minimized_schedule").size(), 1u);
}

}  // namespace
}  // namespace ms::chaos
