#include "eval/experiment.h"

#include <gtest/gtest.h>

#include "core/miner_registry.h"
#include "gen/benchmark_datasets.h"

namespace ufim {
namespace {

TEST(ExperimentTest, RunsExpectedMinerAndFillsMeasurement) {
  UncertainDatabase db = MakePaperTable1();
  auto miner = MinerRegistry::Global().Create("UApriori");
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  auto m = RunExperiment(*miner, FlatView(db), params);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->algorithm, "UApriori");
  EXPECT_EQ(m->num_frequent, 2u);  // {A}, {C} per paper Example 1
  EXPECT_GE(m->millis, 0.0);
  EXPECT_GT(m->counters.candidates_generated, 0u);
  EXPECT_EQ(m->result.size(), m->num_frequent);
}

TEST(ExperimentTest, RunsProbabilisticMinerAndFillsMeasurement) {
  UncertainDatabase db = MakePaperTable1();
  auto miner = MinerRegistry::Global().Create("DPB");
  ProbabilisticParams params;
  params.min_sup = 0.5;
  params.pft = 0.7;
  auto m = RunExperiment(*miner, FlatView(db), params);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->algorithm, "DPB");
  EXPECT_GT(m->num_frequent, 0u);
}

TEST(ExperimentTest, PropagatesParameterErrors) {
  UncertainDatabase db = MakePaperTable1();
  auto miner = MinerRegistry::Global().Create("UApriori");
  ExpectedSupportParams bad;
  bad.min_esup = 0.0;
  auto m = RunExperiment(*miner, FlatView(db), bad);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExperimentTest, PeakBytesZeroWithoutHooks) {
  // This test binary does NOT link ufim_alloc_hooks.
  UncertainDatabase db = MakePaperTable1();
  auto miner = MinerRegistry::Global().Create("UH-Mine");
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  auto m = RunExperiment(*miner, FlatView(db), params);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->peak_bytes, 0u);
}

}  // namespace
}  // namespace ufim
