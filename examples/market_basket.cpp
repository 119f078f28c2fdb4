// Market-basket analysis over uncertain purchase-intent data. Items are
// products; each transaction is a browsing session where the probability
// of a unit models purchase intent inferred from behaviour (view time,
// cart adds). The example contrasts the three expected-support miners on
// the same workload and shows the counters that explain their cost
// differences — a small-scale rehearsal of the paper's Figure 4 study.
//
//   $ ./market_basket
#include <cstdio>
#include <string>

#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "eval/experiment.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"

int main() {
  using namespace ufim;

  // Gazelle is literally click-stream/purchase data; reuse its generator
  // with purchase-intent-like probabilities (most intents are strong:
  // Gaussian mean 0.8).
  DeterministicDatabase sessions = MakeGazelleLike(8000, 2024);
  UncertainDatabase db = AssignGaussianProbabilities(sessions, 0.8, 0.1, 2025);
  DatabaseStats stats = db.ComputeStats();
  std::printf("Sessions: %zu, products: %zu, avg basket %.2f, density %.4f\n",
              stats.num_transactions, stats.num_items, stats.avg_length,
              stats.density);

  ExpectedSupportParams params;
  params.min_esup = 0.003;  // products expected in >= 0.3% of sessions

  std::printf("\n%-12s %10s %12s %12s\n", "algorithm", "time (ms)",
              "candidates", "#frequent");
  const FlatView view(db);
  MiningResult reference;
  for (const std::string& algo : MinerRegistry::Global().NamesOf(
           TaskFamily::kExpectedSupport, /*production_only=*/true)) {
    auto m = RunRegisteredExperiment(algo, view, params);
    if (!m.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", algo.c_str(),
                   m.status().ToString().c_str());
      return 1;
    }
    std::printf("%-12s %10.1f %12llu %12zu\n", m->algorithm.c_str(), m->millis,
                static_cast<unsigned long long>(m->counters.candidates_generated),
                m->num_frequent);
    reference = std::move(m->result);
  }

  // Show the strongest product associations (largest frequent itemsets,
  // then highest expected support).
  std::printf("\nTop associations:\n");
  std::size_t shown = 0;
  for (auto it = reference.itemsets().rbegin();
       it != reference.itemsets().rend() && shown < 8; ++it) {
    if (it->itemset.size() < 2) break;
    std::printf("  products %-14s expected co-purchases: %.1f sessions\n",
                it->itemset.ToString().c_str(), it->expected_support);
    ++shown;
  }
  if (shown == 0) {
    std::printf("  (no multi-product associations at this threshold)\n");
  }
  std::printf("\nAll three miners returned %zu frequent itemsets — different "
              "algorithms, one definition.\n",
              reference.size());
  return 0;
}
