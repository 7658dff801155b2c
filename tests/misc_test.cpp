// Coverage for remaining utilities: table separators, the Young/Daly
// checkpoint-interval optimum, and data-pipeline parameter sweeps (TEST_P).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/table.h"
#include "data/pipeline.h"
#include "ft/checkpoint.h"

namespace ms {
namespace {

// ----------------------------------------------------------------- table

TEST(Table, SeparatorRendersFullWidthLine) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"3", "4"});
  const std::string s = t.to_string();
  // header line + top/bottom + separator = at least 4 dashed lines.
  int dashed = 0;
  std::size_t pos = 0;
  while ((pos = s.find("+--", pos)) != std::string::npos) {
    ++dashed;
    pos += 3;
  }
  EXPECT_GE(dashed, 4);
}

// ------------------------------------------------------------ young/daly

TEST(YoungDaly, FormulaMatchesClosedForm) {
  const TimeNs opt = ft::optimal_checkpoint_interval(seconds(0.5), hours(9.0));
  EXPECT_NEAR(to_seconds(opt), std::sqrt(2.0 * 0.5 * 9.0 * 3600.0), 1.0);
}

TEST(YoungDaly, OptimumMinimizesOverhead) {
  const TimeNs stall = seconds(0.5);
  const TimeNs mtbf = hours(9.0);
  const TimeNs opt = ft::optimal_checkpoint_interval(stall, mtbf);
  const double at_opt = ft::checkpoint_overhead_fraction(opt, stall, mtbf);
  for (double factor : {0.25, 0.5, 2.0, 4.0}) {
    const TimeNs other = static_cast<TimeNs>(static_cast<double>(opt) * factor);
    EXPECT_GE(ft::checkpoint_overhead_fraction(other, stall, mtbf), at_opt)
        << "factor " << factor;
  }
}

TEST(YoungDaly, SmallerStallMeansShorterIntervalAndLessOverhead) {
  const TimeNs mtbf = hours(9.0);
  const TimeNs sync_stall = minutes(1.15);
  const TimeNs two_stage_stall = milliseconds(460.0);
  const TimeNs opt_sync = ft::optimal_checkpoint_interval(sync_stall, mtbf);
  const TimeNs opt_fast = ft::optimal_checkpoint_interval(two_stage_stall, mtbf);
  EXPECT_LT(opt_fast, opt_sync);
  EXPECT_LT(ft::checkpoint_overhead_fraction(opt_fast, two_stage_stall, mtbf),
            ft::checkpoint_overhead_fraction(opt_sync, sync_stall, mtbf));
}

// ----------------------------------------------- data pipeline sweep

struct PipelineCase {
  int gpus_per_node;
  int samples;
};

class PipelineSweep : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineSweep, TreeLoadingAlwaysBeatsRedundant) {
  const auto [gpus, samples] = GetParam();
  data::DataPipelineConfig cfg;
  cfg.gpus_per_node = gpus;
  cfg.samples_per_step = samples;
  cfg.redundant_loaders = true;
  const auto redundant = data::data_step_cost(cfg);
  cfg.redundant_loaders = false;
  const auto tree = data::data_step_cost(cfg);
  EXPECT_LT(tree.exposed, redundant.exposed);
  // Disk traffic ratio approaches the worker count for large steps.
  if (samples >= 64) {
    const double ratio = static_cast<double>(redundant.disk_read) /
                         static_cast<double>(tree.disk_read);
    EXPECT_GT(ratio, gpus * 0.6);
  }
}

TEST_P(PipelineSweep, AsyncAlwaysRemovesPreprocessFromExposure) {
  const auto [gpus, samples] = GetParam();
  data::DataPipelineConfig cfg;
  cfg.gpus_per_node = gpus;
  cfg.samples_per_step = samples;
  cfg.async_preprocessing = false;
  const auto sync_cost = data::data_step_cost(cfg);
  cfg.async_preprocessing = true;
  const auto async_cost = data::data_step_cost(cfg);
  EXPECT_EQ(sync_cost.exposed - async_cost.exposed, sync_cost.preprocess);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineSweep,
    ::testing::Values(PipelineCase{4, 32}, PipelineCase{8, 64},
                      PipelineCase{8, 256}, PipelineCase{16, 128}),
    [](const auto& info) {
      return "g" + std::to_string(info.param.gpus_per_node) + "s" +
             std::to_string(info.param.samples);
    });

}  // namespace
}  // namespace ms
