// Parallelism-plan auto-tuner: the Table-2 rediscovery gauntlet.
//
// The paper hand-tuned one 3D configuration per cluster size (175B: TP 8,
// PP 8, vpp 6, DP = GPUs/64, batch 6144). These tests make the planner
// *rediscover* that point from nothing but the model, the cluster size and
// the software generation: at 6,144 and 12,288 GPUs the paper layout must
// win outright; at 3,072 it must be a simulated finalist within a few
// percent of the modeled optimum. Golden fixtures under tests/golden/plan/
// pin the winner, the ranked counts and the report digest per scale —
// regenerate after an intentional model change with
//   MS_UPDATE_GOLDEN=1 ./plan_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/job.h"
#include "model/transformer.h"
#include "plan/plan_cli.h"
#include "plan/planner.h"
#include "plan/space.h"

#ifndef MS_GOLDEN_DIR
#error "build must define MS_GOLDEN_DIR"
#endif

namespace ms {
namespace {

// The planning problem the paper's Table 2 solves by hand: 175B with the
// MegaScale software generation (PTB + SWA + fused ops + full overlap) on
// an H-series CLOS fabric, batch 6144. Mirrors bench/common.h's
// megascale_175b() so planner and bench price identical physics.
plan::PlanSpec table2_spec(int gpus) {
  plan::PlanSpec spec;
  spec.model = model::config_175b();
  spec.model.parallel_block = true;
  spec.model.attention = model::AttentionKind::kSlidingWindow;
  spec.model.window = 512;
  spec.gpus = gpus;
  spec.global_batch = 6144;
  spec.network_efficiency = plan::fabric_network_efficiency(gpus);
  return spec;
}

std::string paper_plan_name(int gpus) {
  return "tp8 pp8 dp" + std::to_string(gpus / 64) + " vpp6";
}

const plan::RankedPlan* find_plan(const plan::PlanReport& report,
                                  const std::string& name) {
  for (const auto& plan : report.plans) {
    if (plan::candidate_name(plan.cand) == name) return &plan;
  }
  return nullptr;
}

std::string digest_hex(const plan::PlanReport& report) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(report.digest()));
  return buf;
}

class Table2PlanSearch : public ::testing::TestWithParam<int> {};

// The headline claim: the auto-tuner rediscovers the paper's hand-tuned
// configuration. Outright at 6,144/12,288 GPUs; within 3% of the simulated
// optimum at 3,072 (where the bubble/DP trade genuinely favors pp 4 in our
// substrate, the paper config sits 0.5% behind).
TEST_P(Table2PlanSearch, RediscoversPaperConfig) {
  const int gpus = GetParam();
  const plan::PlanReport report = plan::search(table2_spec(gpus));
  ASSERT_FALSE(report.plans.empty());

  const auto& winner = report.best();
  ASSERT_TRUE(winner.simulated);

  const plan::RankedPlan* paper = find_plan(report, paper_plan_name(gpus));
  ASSERT_NE(paper, nullptr)
      << "paper config " << paper_plan_name(gpus) << " not even enumerated";
  EXPECT_TRUE(paper->simulated)
      << "paper config pruned before DES validation (analytic rank "
      << paper->analytic_rank << ")";
  ASSERT_GT(paper->sim_step, 0);

  const double gap = to_seconds(paper->sim_step) / to_seconds(winner.sim_step);
  EXPECT_LE(gap, 1.03) << "paper config " << paper_plan_name(gpus) << " is "
                       << (gap - 1.0) * 100.0 << "% behind "
                       << plan::candidate_name(winner.cand);
  if (gpus >= 6144) {
    EXPECT_EQ(plan::candidate_name(winner.cand), paper_plan_name(gpus))
        << "paper config should win outright at " << gpus << " GPUs";
  }
}

// Golden regression: winner, paper-config rank, space counts and the
// FNV-1a report digest are pinned per scale.
TEST_P(Table2PlanSearch, MatchesGoldenFixture) {
  const int gpus = GetParam();
  const plan::PlanReport report = plan::search(table2_spec(gpus));
  ASSERT_FALSE(report.plans.empty());

  int paper_rank = 0;
  for (std::size_t i = 0; i < report.plans.size(); ++i) {
    if (plan::candidate_name(report.plans[i].cand) == paper_plan_name(gpus)) {
      paper_rank = static_cast<int>(i) + 1;
      break;
    }
  }
  std::map<std::string, std::string> got;
  got["winner"] = plan::candidate_name(report.best().cand);
  got["paper"] = paper_plan_name(gpus);
  got["paper_rank"] = std::to_string(paper_rank);
  got["enumerated"] = std::to_string(report.enumerated);
  got["memory_rejected"] = std::to_string(report.memory_rejected);
  got["simulated"] = std::to_string(report.simulated);
  got["digest"] = digest_hex(report);

  const std::string path = std::string(MS_GOLDEN_DIR) + "/plan/table2_" +
                           std::to_string(gpus) + ".txt";
  if (std::getenv("MS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << "# msplan Table-2 rediscovery pin, " << gpus << " GPUs. "
        << "Regenerate: MS_UPDATE_GOLDEN=1 ./plan_test\n";
    for (const auto& [key, value] : got) out << key << ": " << value << "\n";
    GTEST_SKIP() << "golden regenerated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with MS_UPDATE_GOLDEN=1 to create)";
  std::map<std::string, std::string> want;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto colon = line.find(": ");
    ASSERT_NE(colon, std::string::npos) << "unparseable golden line: " << line;
    want[line.substr(0, colon)] = line.substr(colon + 2);
  }
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Table2, Table2PlanSearch,
                         ::testing::Values(3072, 6144, 12288),
                         [](const auto& info) {
                           return "gpus" + std::to_string(info.param);
                         });

// Report invariants: finalists first by ascending simulated step, pruned
// remainder after them by ascending analytic step.
TEST(PlanReport, FinalistsLeadAndBothSegmentsAreSorted) {
  const plan::PlanReport report = plan::search(table2_spec(3072));
  ASSERT_GE(report.plans.size(), static_cast<std::size_t>(report.simulated));
  for (std::size_t i = 0; i < report.plans.size(); ++i) {
    const bool is_finalist = i < static_cast<std::size_t>(report.simulated);
    EXPECT_EQ(report.plans[i].simulated, is_finalist) << "row " << i;
    if (i == 0) continue;
    const auto& prev = report.plans[i - 1];
    const auto& cur = report.plans[i];
    if (cur.simulated) {
      EXPECT_GE(cur.sim_step, prev.sim_step) << "row " << i;
    } else if (!prev.simulated) {
      EXPECT_GE(cur.analytic.step, prev.analytic.step) << "row " << i;
    }
  }
}

TEST(PlanReport, JsonlHeaderCarriesSpecAndDigest) {
  const plan::PlanReport report = plan::search(table2_spec(3072));
  const std::string jsonl = report.to_jsonl();
  std::istringstream lines(jsonl);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_NE(header.find("\"plan_search\""), std::string::npos);
  EXPECT_NE(header.find("\"gpus\":3072"), std::string::npos);
  EXPECT_NE(header.find(digest_hex(report)), std::string::npos);
  // One line per ranked plan after the header.
  std::size_t rows = 0;
  for (std::string l; std::getline(lines, l);) rows += !l.empty();
  EXPECT_EQ(rows, report.plans.size());
}

// ---------------------------------------------------------------- msplan CLI

int run_cli(const std::vector<std::string>& args, std::string* out_text,
            std::string* err_text) {
  std::ostringstream out, err;
  const int rc = plan::msplan_main(args, out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return rc;
}

TEST(MsplanCli, UnknownFlagFailsWithUsage) {
  std::string err;
  EXPECT_EQ(run_cli({"--bogus"}, nullptr, &err), 1);
  EXPECT_NE(err.find("usage: msplan"), std::string::npos);
  // Malformed numbers fail before any search, naming position and flag.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--model", "13b", "--gpus", "256", "--top-k", "x"},
       "argument 5 (--top-k)"},
      {{"--model", "13b", "--gpus", "256x"}, "argument 3 (--gpus)"},
      {{"--model", "13b", "--gpus", "256", "--net-eff", "nan"},
       "argument 5 (--net-eff)"},
      {{"--gpus", "99999999999"}, "argument 1 (--gpus)"},
  };
  for (const auto& [args, named] : cases) {
    std::string out;
    EXPECT_EQ(run_cli(args, &out, &err), 1) << named;
    EXPECT_NE(err.find(named), std::string::npos) << err;
    EXPECT_EQ(out.find("space:"), std::string::npos) << out;
  }
}

TEST(MsplanCli, RequiresGpus) {
  std::string err;
  EXPECT_EQ(run_cli({"--model", "175b"}, nullptr, &err), 1);
  EXPECT_NE(err.find("--gpus"), std::string::npos);
}

TEST(MsplanCli, RejectsUnknownModelScheduleAndNetEff) {
  std::string err;
  EXPECT_EQ(run_cli({"--model", "9000b", "--gpus", "64"}, nullptr, &err), 1);
  EXPECT_NE(err.find("unknown model"), std::string::npos);
  EXPECT_EQ(run_cli({"--gpus", "64", "--schedule", "dfs"}, nullptr, &err), 1);
  EXPECT_EQ(run_cli({"--gpus", "64", "--net-eff", "1.5"}, nullptr, &err), 1);
  EXPECT_EQ(run_cli({"--gpus", "64", "--net-eff", "0"}, nullptr, &err), 1);
}

TEST(MsplanCli, InfeasibleSpaceIsAnError) {
  // 175B on 8 GPUs: every factorization blows the 80 GB budget.
  std::string out, err;
  EXPECT_EQ(run_cli({"--model", "175b", "--gpus", "8", "--batch", "8",
                     "--net-eff", "0.9"},
                    &out, &err),
            1);
  EXPECT_NE(err.find("no feasible plan"), std::string::npos);
}

TEST(MsplanCli, SmallSearchPrintsWinnerAndWritesJsonl) {
  const std::string json_path =
      ::testing::TempDir() + "/msplan_13b_plans.jsonl";
  std::string out, err;
  ASSERT_EQ(run_cli({"--model", "13b", "--gpus", "32", "--batch", "64",
                     "--top-k", "3", "--net-eff", "0.9", "--json", json_path},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("winner: 13B gpus=32"), std::string::npos);
  const auto digest_at = out.find("digest: 0x");
  ASSERT_NE(digest_at, std::string::npos);
  const std::string digest = out.substr(digest_at + 8, 18);

  std::ifstream f(json_path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_NE(buf.str().find("\"plan_search\""), std::string::npos);
  EXPECT_NE(buf.str().find(digest), std::string::npos)
      << "stdout digest and JSONL digest must agree";
}

TEST(MsplanCli, BaselineGpipeAndNoSimVariantsRun) {
  std::string out, err;
  EXPECT_EQ(run_cli({"--model", "13b", "--gpus", "16", "--batch", "32",
                     "--net-eff", "0.9", "--baseline", "--no-sim"},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("0 simulated"), std::string::npos);
  EXPECT_EQ(run_cli({"--model", "13b", "--gpus", "16", "--batch", "32",
                     "--net-eff", "0.9", "--schedule", "gpipe", "--top-k",
                     "2"},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("winner: "), std::string::npos);
}

// ------------------------------------------------------- supporting pieces

TEST(PlanSupport, ConfigByNameIsCaseInsensitive) {
  model::ModelConfig cfg;
  EXPECT_TRUE(model::config_by_name("175B", cfg));
  EXPECT_EQ(cfg.name, "175B");
  EXPECT_TRUE(model::config_by_name("13b", cfg));
  EXPECT_FALSE(model::config_by_name("gpt5", cfg));
}

TEST(PlanSupport, DescribeRendersTheFullLayout) {
  plan::PlanSpec spec = table2_spec(3072);
  plan::PlanCandidate cand;
  cand.par = parallel::ParallelConfig{.tp = 8, .pp = 8, .dp = 48, .vpp = 6};
  const std::string text = engine::describe(plan::job_config(spec, cand));
  EXPECT_EQ(text,
            "175B gpus=3072 tp=8 pp=8 dp=48 vpp=6 batch=6144 m=128 "
            "overlap=megascale");
}

}  // namespace
}  // namespace ms
