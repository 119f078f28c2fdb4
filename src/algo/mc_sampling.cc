// Monte-Carlo sampling miner (Calders, Garboni & Goethals, PAKDD'10 —
// the paper's reference [11]): estimates the frequent probability of
// each candidate by sampling possible worlds of its containment-
// probability vector. An unbiased estimator with standard error
// <= 1/(2*sqrt(mc_samples)); with the default 1024 samples the
// estimate is within ~±0.03 at 95% confidence.
//
// Included as the fourth approximate method the paper's taxonomy
// mentions but does not benchmark; `bench/ablation_sampling`
// contrasts it with the moment-based approximations.
//
// Threads parallelize candidate counting *and* the tail sampling
// itself: each candidate draws from a private RNG stream derived from
// (mc_seed, stable candidate ordinal) — see DeriveStreamSeed — so
// concurrent evaluation consumes no shared state and results are
// bit-identical at every thread count. Under the bounds prefilter the
// framework cascade stays off, because analytic bounds on the true tail
// may not overrule an *estimate* (they could disagree with the estimator
// and change the result set); instead the sampler stops early once the
// remaining samples can no longer lift the estimate above pft — a
// decision-identical shortcut, so results still match prefilter off.

#include "algo/apriori_framework.h"
#include "common/rng.h"
#include "core/miner_registry.h"

namespace ufim {

namespace {

Result<MiningResult> MineMCSampling(const FlatView& view,
                                    const ProbabilisticParams& params,
                                    const MinerOptions& options) {
  if (options.mc_samples == 0) {
    return Status::InvalidArgument("MCSampling requires num_samples > 0");
  }
  const std::size_t msc = params.MinSupportCount(view.num_transactions());
  const std::size_t samples = options.mc_samples;

  MiningResult result;
  const std::uint64_t seed = options.mc_seed;
  // Counter-based RNG splitting: every candidate samples from its own
  // stream, seeded off (seed, candidate ordinal). The ordinal is stable
  // across thread counts, so the estimate per candidate — and therefore
  // the whole result — is bit-identical whether tails are evaluated
  // sequentially or in parallel.
  // Bounds mode: stop a candidate's sampling once even an all-hit run of
  // the remaining samples could not lift the estimate above pft. The
  // returned ceiling is <= pft by the very comparison that triggered the
  // exit, and the full run's estimate can only be smaller, so the
  // frequent/infrequent decision — and because infrequent estimates are
  // never reported, the entire result — is identical to a full run.
  // Per-candidate RNG streams make the shortcut invisible to every other
  // candidate.
  const bool early_exit = options.prefilter == PrefilterMode::kBounds;
  const double pft = params.pft;
  auto tail_estimator = [samples, seed, early_exit,
                         pft](const std::vector<double>& probs, std::size_t k,
                              std::size_t ordinal) {
    if (k == 0) return 1.0;
    if (probs.size() < k) return 0.0;
    Rng rng(DeriveStreamSeed(seed, ordinal));
    std::size_t hits = 0;
    for (std::size_t s = 0; s < samples; ++s) {
      // Sample one possible world of this itemset's containments; stop
      // counting as soon as the threshold is reached, and abort when it
      // has become unreachable.
      std::size_t count = 0;
      std::size_t remaining = probs.size();
      for (double p : probs) {
        if (count + remaining < k) break;
        if (rng.Bernoulli(p)) {
          if (++count >= k) break;
        }
        --remaining;
      }
      if (count >= k) ++hits;
      if (early_exit) {
        const double ceiling =
            static_cast<double>(hits + (samples - s - 1)) /
            static_cast<double>(samples);
        if (ceiling <= pft) return ceiling;
      }
    }
    return static_cast<double>(hits) / static_cast<double>(samples);
  };
  ProbabilisticLoopOptions loop;
  loop.use_chernoff = true;  // part of the algorithm in both modes
  loop.prefilter = options.prefilter;
  loop.certified_tail = false;  // estimator: bounds may not overrule it
  loop.num_threads = options.num_threads;
  loop.context = &options.run_context;
  std::vector<FrequentItemset> found = MineProbabilisticApriori(
      view, msc, params.pft, tail_estimator, loop, &result.counters());
  for (FrequentItemset& fi : found) result.Add(std::move(fi));
  result.SortCanonical();
  return result;
}

}  // namespace

UFIM_REGISTER_MINER("MCSampling", /*exact=*/false, /*production=*/true,
                    MineMCSampling)

}  // namespace ufim
