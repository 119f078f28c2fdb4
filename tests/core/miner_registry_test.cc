#include "core/miner_registry.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/benchmark_datasets.h"

namespace ufim {
namespace {

TEST(MinerRegistryTest, RoundTripsEveryFactoryName) {
  for (const std::string& name : MinerRegistry::Global().Names()) {
    const MinerEntry* entry = MinerRegistry::Global().Find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->name, name);
    std::unique_ptr<Miner> miner = MinerRegistry::Global().Create(name);
    ASSERT_NE(miner, nullptr) << name;
    EXPECT_EQ(miner->name(), name);
    // The registered family must agree with what the miner accepts.
    EXPECT_EQ(miner->Supports(MiningTask(ExpectedSupportParams{})),
              entry->family == TaskFamily::kExpectedSupport)
        << name;
    EXPECT_EQ(miner->Supports(MiningTask(ProbabilisticParams{})),
              entry->family == TaskFamily::kProbabilistic)
        << name;
    EXPECT_EQ(miner->Supports(MiningTask(TopKParams{})),
              entry->family == TaskFamily::kTopK)
        << name;
  }
}

TEST(MinerRegistryTest, ExactnessFlagsMatchTaxonomy) {
  // The paper's taxonomy (Table 2) plus the extensions: every registered
  // algorithm, its family and whether its frequentness is exact.
  struct Row {
    const char* name;
    TaskFamily family;
    bool exact;
  };
  const Row kTaxonomy[] = {
      {"BruteForceExpected", TaskFamily::kExpectedSupport, true},
      {"BruteForceProbabilistic", TaskFamily::kProbabilistic, true},
      {"DCB", TaskFamily::kProbabilistic, true},
      {"DCNB", TaskFamily::kProbabilistic, true},
      {"DPB", TaskFamily::kProbabilistic, true},
      {"DPNB", TaskFamily::kProbabilistic, true},
      {"MCSampling", TaskFamily::kProbabilistic, false},
      {"NDUApriori", TaskFamily::kProbabilistic, false},
      {"NDUH-Mine", TaskFamily::kProbabilistic, false},
      {"PDUApriori", TaskFamily::kProbabilistic, false},
      {"TopK", TaskFamily::kTopK, true},
      {"UApriori", TaskFamily::kExpectedSupport, true},
      {"UFP-growth", TaskFamily::kExpectedSupport, true},
      {"UH-Mine", TaskFamily::kExpectedSupport, true},
  };
  std::vector<std::string> names;
  for (const Row& row : kTaxonomy) {
    names.push_back(row.name);
    const MinerEntry* entry = MinerRegistry::Global().Find(row.name);
    ASSERT_NE(entry, nullptr) << row.name;
    EXPECT_EQ(entry->family, row.family) << row.name;
    EXPECT_EQ(entry->exact, row.exact) << row.name;
    EXPECT_EQ(MinerRegistry::Global().Create(row.name)->is_exact(), row.exact)
        << row.name;
  }
  // Nothing registered is missing from the table.
  for (const std::string& name : MinerRegistry::Global().Names()) {
    if (name == "StubMiner") continue;  // SelfRegistrationAcceptsNewAlgorithms
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

/// A valid task of `family` whose params Validate() accepts.
MiningTask TaskOf(TaskFamily family) {
  switch (family) {
    case TaskFamily::kExpectedSupport:
      return ExpectedSupportParams{};
    case TaskFamily::kProbabilistic:
      return ProbabilisticParams{};
    case TaskFamily::kTopK:
      return TopKParams{};
  }
  return TopKParams{};
}

TEST(MinerRegistryTest, EveryMinerRejectsTasksOfOtherFamilies) {
  const FlatView view(MakePaperTable1());
  for (const std::string& name : MinerRegistry::Global().Names()) {
    const TaskFamily own = MinerRegistry::Global().Find(name)->family;
    std::unique_ptr<Miner> miner = MinerRegistry::Global().Create(name);
    for (TaskFamily other : {TaskFamily::kExpectedSupport,
                             TaskFamily::kProbabilistic, TaskFamily::kTopK}) {
      if (other == own) continue;
      Result<MiningResult> result = miner->Mine(view, TaskOf(other));
      ASSERT_FALSE(result.ok()) << name;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
    }
  }
}

TEST(MinerRegistryTest, EveryMinerRejectsOutOfRangeParams) {
  const FlatView view(MakePaperTable1());
  ExpectedSupportParams zero_esup;
  zero_esup.min_esup = 0.0;
  ProbabilisticParams certain_pft;
  certain_pft.pft = 1.0;
  TopKParams zero_k;
  zero_k.k = 0;
  for (const std::string& name : MinerRegistry::Global().Names()) {
    MiningTask bad = zero_k;
    switch (MinerRegistry::Global().Find(name)->family) {
      case TaskFamily::kExpectedSupport:
        bad = zero_esup;
        break;
      case TaskFamily::kProbabilistic:
        bad = certain_pft;
        break;
      case TaskFamily::kTopK:
        break;
    }
    Result<MiningResult> result =
        MinerRegistry::Global().Create(name)->Mine(view, bad);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(MinerRegistryTest, OptionsReachUApriori) {
  // Both configurations must produce identical results (pruning is an
  // optimization); this smoke-tests the options plumbing.
  const FlatView view(MakePaperTable1());
  ExpectedSupportParams params;
  params.min_esup = 0.3;
  MinerOptions on;
  on.decremental_pruning = true;
  MinerOptions off;
  off.decremental_pruning = false;
  auto a = MinerRegistry::Global().Create("UApriori", on)->Mine(view, params);
  auto b = MinerRegistry::Global().Create("UApriori", off)->Mine(view, params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ItemsetsOnly(), b->ItemsetsOnly());
}

TEST(MinerRegistryTest, UnknownNameIsNull) {
  EXPECT_EQ(MinerRegistry::Global().Find("NoSuchMiner"), nullptr);
  EXPECT_EQ(MinerRegistry::Global().Create("NoSuchMiner"), nullptr);
}

TEST(MinerRegistryTest, ProductionNamesExcludeBruteForce) {
  const std::vector<std::string> production =
      MinerRegistry::Global().Names(/*production_only=*/true);
  EXPECT_EQ(std::count(production.begin(), production.end(),
                       "BruteForceExpected"),
            0);
  EXPECT_EQ(std::count(production.begin(), production.end(),
                       "BruteForceProbabilistic"),
            0);
  // 3 expected-support + 4 exact + 3 approximate + MCSampling + TopK =
  // 12 production algorithms.
  EXPECT_EQ(production.size(), 12u);
  EXPECT_EQ(MinerRegistry::Global()
                .NamesOf(TaskFamily::kExpectedSupport, /*production_only=*/true)
                .size(),
            3u);
  EXPECT_EQ(MinerRegistry::Global()
                .NamesOf(TaskFamily::kProbabilistic, /*production_only=*/true)
                .size(),
            8u);
  EXPECT_EQ(MinerRegistry::Global()
                .NamesOf(TaskFamily::kTopK, /*production_only=*/true)
                .size(),
            1u);
}

TEST(MinerRegistryTest, TopKIsAFirstClassMiner) {
  const MinerEntry* entry = MinerRegistry::Global().Find("TopK");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->family, TaskFamily::kTopK);
  std::unique_ptr<Miner> miner = MinerRegistry::Global().Create("TopK");
  ASSERT_NE(miner, nullptr);
  EXPECT_TRUE(miner->Supports(MiningTask(TopKParams{})));
  EXPECT_FALSE(miner->Supports(MiningTask(ExpectedSupportParams{})));
  EXPECT_FALSE(miner->Supports(MiningTask(ProbabilisticParams{})));
  EXPECT_TRUE(miner->is_exact());

  FlatView view((MakePaperTable1()));
  TopKParams params;
  params.k = 2;
  auto result = miner->Mine(view, MiningTask(params));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  // Descending expected support: {C} 2.6 then {A} 2.1 (paper Example 1).
  EXPECT_NEAR((*result)[0].expected_support, 2.6, 1e-12);
  EXPECT_NEAR((*result)[1].expected_support, 2.1, 1e-12);

  auto wrong = miner->Mine(view, MiningTask(ExpectedSupportParams{}));
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(MinerRegistryTest, UnifiedFacadeDispatchesOnTask) {
  UncertainDatabase db = MakePaperTable1();
  FlatView view(db);
  std::unique_ptr<Miner> miner = MinerRegistry::Global().Create("UApriori");
  ASSERT_NE(miner, nullptr);

  ExpectedSupportParams params;
  params.min_esup = 0.5;
  auto ok = miner->Mine(view, MiningTask(params));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 2u);  // {A}, {C} per paper Example 1

  // The wrong task family is rejected, not silently coerced.
  auto wrong = miner->Mine(view, MiningTask(ProbabilisticParams{}));
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(MinerRegistryTest, EveryMinerRunsThroughUnifiedFacadeOverFlatView) {
  UncertainDatabase db = MakePaperTable1();
  FlatView view(db);
  for (const std::string& name : MinerRegistry::Global().Names()) {
    const MinerEntry* entry = MinerRegistry::Global().Find(name);
    ASSERT_NE(entry, nullptr) << name;
    MiningTask task = TopKParams{2};
    if (entry->family == TaskFamily::kExpectedSupport) {
      ExpectedSupportParams params;
      params.min_esup = 0.3;
      task = params;
    } else if (entry->family == TaskFamily::kProbabilistic) {
      ProbabilisticParams params;
      params.min_sup = 0.4;
      params.pft = 0.5;
      task = params;
    }
    auto result = MinerRegistry::Global().Create(name)->Mine(view, task);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_GT(result->size(), 0u) << name;
  }
}

TEST(MinerRegistryTest, SelfRegistrationAcceptsNewAlgorithms) {
  // A miner registered at runtime is immediately creatable by name —
  // the plug-in path a new algorithm's translation unit uses.
  MinerRegistry::Global().Register(
      "StubMiner", /*exact=*/false, /*production=*/false,
      [](const FlatView&, const ExpectedSupportParams&,
         const MinerOptions&) -> Result<MiningResult> {
        return MiningResult();
      });
  const MinerEntry* entry = MinerRegistry::Global().Find("StubMiner");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->family, TaskFamily::kExpectedSupport);
  std::unique_ptr<Miner> miner = MinerRegistry::Global().Create("StubMiner");
  ASSERT_NE(miner, nullptr);
  EXPECT_EQ(miner->name(), "StubMiner");
  EXPECT_FALSE(miner->is_exact());
  auto result = miner->Mine(FlatView(MakePaperTable1()),
                            MiningTask(ExpectedSupportParams{}));
  EXPECT_TRUE(result.ok());
}

}  // namespace
}  // namespace ufim
