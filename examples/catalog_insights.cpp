// Catalog insights: the post-processing layer end-to-end. Mines a
// product catalog without knowing a good threshold (top-k), condenses
// the full result (closed / maximal), derives association rules with
// expected confidence, and persists everything for downstream tooling.
//
//   $ ./catalog_insights
#include <cstdio>

#include "core/miner_registry.h"
#include "core/postprocess.h"
#include "core/result_io.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"

int main() {
  using namespace ufim;

  UncertainDatabase db =
      AssignGaussianProbabilities(MakeGazelleLike(6000, 99), 0.85, 0.05, 100);
  std::printf("Catalog sessions: %zu\n", db.size());

  // 1. No threshold in mind? Ask for the strongest itemsets directly.
  auto top = MinerRegistry::Global().Create("TopK")->Mine(FlatView(db),
                                                          TopKParams{12});
  if (!top.ok()) {
    std::fprintf(stderr, "%s\n", top.status().ToString().c_str());
    return 1;
  }
  std::printf("\nTop-12 itemsets by expected support "
              "(%llu candidates explored):\n",
              static_cast<unsigned long long>(
                  top->counters().candidates_generated));
  for (const FrequentItemset& fi : top->itemsets()) {
    std::printf("  %-12s esup = %8.2f\n", fi.itemset.ToString().c_str(),
                fi.expected_support);
  }

  // 2. Full mining at the threshold the top-k run suggests, then
  //    condense: closed loses nothing, maximal gives the frontier.
  // Rule material needs co-occurrence pairs, which on sparse catalog
  // data sit far below the single-product supports: mine deep.
  ExpectedSupportParams params;
  params.min_esup = 0.003;
  auto all = MinerRegistry::Global().Create("UH-Mine")->Mine(FlatView(db), params);
  if (!all.ok()) return 1;
  MiningResult closed = FilterClosed(*all);
  MiningResult maximal = FilterMaximal(*all);
  std::printf("\nAt min_esup=%.4f: %zu frequent, %zu closed, %zu maximal\n",
              params.min_esup, all->size(), closed.size(), maximal.size());

  // 3. Rules with expected confidence.
  auto rules = GenerateRules(*all, /*min_confidence=*/0.1);
  std::printf("\n%zu rules at confidence >= 0.10 (top 5):\n", rules.size());
  for (std::size_t i = 0; i < rules.size() && i < 5; ++i) {
    std::printf("  %s\n", rules[i].ToString().c_str());
  }

  // 4. Persist the result for diffing between algorithm runs.
  const std::string path = "/tmp/catalog_result.txt";
  if (Status s = WriteResult(*all, path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto reloaded = ReadResult(path);
  if (!reloaded.ok() || reloaded->size() != all->size()) {
    std::fprintf(stderr, "result round-trip failed\n");
    return 1;
  }
  std::printf("\nPersisted and reloaded %zu itemsets via %s\n",
              reloaded->size(), path.c_str());
  return 0;
}
