// Golden-scenario regression tests (labels: tier1, chaos).
//
// Each canonical scenario runs on the DEFAULT ChaosConfig with a fixed
// seed and is diffed against the committed golden record under
// tests/golden/chaos/. Ratios and latencies compare within Tolerance
// (digests and counts in the goldens are informational — exact digest
// stability is asserted in-process by the property suite, since committed
// digests would pin one libm's rounding).
//
// Regenerate after an intentional behaviour change:
//   MS_UPDATE_GOLDEN=1 ./chaos_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "chaos/outcome.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"

#ifndef MS_GOLDEN_DIR
#error "build must define MS_GOLDEN_DIR"
#endif

namespace ms::chaos {
namespace {

constexpr std::uint64_t kGoldenSeed = 0x601d;

std::string golden_path(const std::string& scenario) {
  return std::string(MS_GOLDEN_DIR) + "/chaos/" + scenario + ".json";
}

class ChaosGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(ChaosGolden, MatchesCommittedRecord) {
  const std::string name = GetParam();
  const auto* scenario = find_scenario(name);
  ASSERT_NE(scenario, nullptr);
  const ChaosConfig cfg;  // golden runs use the production-shaped defaults
  const auto record = run_scenario(cfg, *scenario, kGoldenSeed);

  const auto path = golden_path(name);
  if (std::getenv("MS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << to_json(record) << "\n";
    GTEST_SKIP() << "golden regenerated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with MS_UPDATE_GOLDEN=1 to create)";
  std::stringstream buf;
  buf << in.rdbuf();
  OutcomeRecord want;
  ASSERT_TRUE(from_json(buf.str(), want)) << "unparseable golden " << path;

  const auto diffs = diff_outcomes(record, want, Tolerance{});
  for (const auto& diff : diffs) {
    ADD_FAILURE() << name << ": " << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(Canonical, ChaosGolden,
                         ::testing::Values("clean", "failstop-midstep",
                                           "allgather-flap",
                                           "straggler-ckpt-stall",
                                           "ecmp-cascade", "pfc-storm"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace ms::chaos
