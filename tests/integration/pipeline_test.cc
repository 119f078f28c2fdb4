// Full-pipeline integration: dataset generation -> disk -> reload ->
// mining -> result serialization -> reload -> post-processing. What a
// downstream user actually does, wired end to end.
#include <cstdio>

#include <gtest/gtest.h>

#include "core/miner_registry.h"
#include "core/postprocess.h"
#include "core/result_io.h"
#include "eval/metrics.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "io/dataset_io.h"

namespace ufim {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }
};

TEST_F(PipelineTest, DatasetRoundTripPreservesMiningResults) {
  // Mining the reloaded dataset must equal mining the original.
  UncertainDatabase original =
      AssignGaussianProbabilities(MakeGazelleLike(800, 5), 0.9, 0.05, 6);
  const std::string path = TempPath("pipeline.udb");
  ASSERT_TRUE(WriteDataset(original, path).ok());
  auto reloaded = ReadDataset(path);
  ASSERT_TRUE(reloaded.ok());

  ExpectedSupportParams params;
  params.min_esup = 0.005;
  auto miner = MinerRegistry::Global().Create("UH-Mine");
  auto before = miner->Mine(FlatView(original), params);
  auto after = miner->Mine(FlatView(*reloaded), params);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->size(), after->size());
  for (std::size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*before)[i].itemset, (*after)[i].itemset);
    EXPECT_EQ((*before)[i].expected_support, (*after)[i].expected_support);
  }
  std::remove(path.c_str());
}

TEST_F(PipelineTest, ResultRoundTripThenPostprocess) {
  UncertainDatabase db =
      AssignGaussianProbabilities(MakeGazelleLike(800, 7), 0.9, 0.05, 8);
  ProbabilisticParams params;
  params.min_sup = 0.004;
  params.pft = 0.9;
  auto mined = MinerRegistry::Global().Create("NDUH-Mine")
                   ->Mine(FlatView(db), params);
  ASSERT_TRUE(mined.ok());
  ASSERT_GT(mined->size(), 0u);

  const std::string path = TempPath("pipeline_result.txt");
  ASSERT_TRUE(WriteResult(*mined, path).ok());
  auto reloaded = ReadResult(path);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->size(), mined->size());

  // Post-processing the reloaded result equals post-processing the
  // in-memory one (serialization is bit-exact).
  MiningResult closed_mem = FilterClosed(*mined);
  MiningResult closed_disk = FilterClosed(*reloaded);
  EXPECT_EQ(closed_mem.ItemsetsOnly(), closed_disk.ItemsetsOnly());
  std::remove(path.c_str());
}

TEST_F(PipelineTest, DiffTwoAlgorithmsThroughSerializedResults) {
  // The workflow behind the paper's fairness methodology: persist two
  // algorithms' results and diff them with precision/recall.
  UncertainDatabase db =
      AssignGaussianProbabilities(MakeAccidentLike(400, 9), 0.5, 0.5, 10);
  ProbabilisticParams params;
  params.min_sup = 0.2;
  params.pft = 0.9;
  const std::string path_a = TempPath("dcb.txt");
  const std::string path_b = TempPath("nduh.txt");
  auto a = MinerRegistry::Global().Create("DCB")->Mine(FlatView(db), params);
  auto b =
      MinerRegistry::Global().Create("NDUH-Mine")->Mine(FlatView(db), params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(WriteResult(*a, path_a).ok());
  ASSERT_TRUE(WriteResult(*b, path_b).ok());
  auto ra = ReadResult(path_a);
  auto rb = ReadResult(path_b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  PrecisionRecall pr = ComputePrecisionRecall(*rb, *ra);
  // CLT regime with N=400 is already good enough for near-agreement.
  EXPECT_GE(pr.precision, 0.9);
  EXPECT_GE(pr.recall, 0.9);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST_F(PipelineTest, ZipfPipelineEndToEnd) {
  // Zipf-probability branch of the generator feeding the whole chain.
  UncertainDatabase db = AssignZipfProbabilities(MakeConnectLike(300, 11), 1.2, 12);
  const std::string path = TempPath("zipf.udb");
  ASSERT_TRUE(WriteDataset(db, path).ok());
  auto reloaded = ReadDataset(path);
  ASSERT_TRUE(reloaded.ok());
  ExpectedSupportParams params;
  params.min_esup = 0.1;
  for (const std::string& algo : MinerRegistry::Global().NamesOf(
           TaskFamily::kExpectedSupport, /*production_only=*/true)) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(*reloaded), params);
    ASSERT_TRUE(result.ok()) << algo;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ufim
