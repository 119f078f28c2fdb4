// Depth-first exhaustive reference miners used as ground truth by the
// test suite. They share no code with the production algorithms beyond
// the data model, making cross-checks meaningful: support probabilities
// come from the view's postings and tails from the naive O(n²)
// convolution path rather than the DP/DC/FFT machinery.
//
// BruteForceExpected prunes on the (exact) anti-monotonicity of expected
// support, so it is complete. BruteForceProbabilistic builds each
// itemset's support pmf by incrementally convolving Bernoulli factors
// and prunes on the anti-monotonicity of the frequent probability.

#include <algorithm>
#include <vector>

#include "common/math_util.h"
#include "core/miner_registry.h"

namespace ufim {

namespace {

/// Sparse containment of a prefix itemset: the transactions where it has
/// nonzero probability, with those probabilities.
struct Containment {
  std::vector<TransactionId> tids;
  std::vector<double> probs;

  double Esup() const {
    KahanSum s;
    for (double p : probs) s.Add(p);
    return s.value();
  }

  double SqSum() const {
    KahanSum s;
    for (double p : probs) s.Add(p * p);
    return s.value();
  }
};

/// Extends `base` with `item` via the shared list×postings batch join:
/// keeps transactions where `item` also occurs, multiplying
/// probabilities. `scratch` is reused across the whole DFS; the matches
/// are materialized into the returned containment before the caller
/// joins again.
Containment Extend(const FlatView& view, const Containment& base, ItemId item,
                   JoinScratch& scratch) {
  const FlatView::ListMatches matches =
      view.JoinWithPostings(base.tids, item, scratch);
  Containment out;
  out.tids.reserve(matches.size());
  out.probs.reserve(matches.size());
  for (std::size_t k = 0; k < matches.size(); ++k) {
    const std::size_t i = matches.seq_indices[k];
    out.tids.push_back(base.tids[i]);
    out.probs.push_back(base.probs[i] * matches.probs[k]);
  }
  return out;
}

Containment SingleItem(const FlatView& view, ItemId item) {
  Containment out;
  view.CopyPostings(item, out.tids, out.probs);
  return out;
}

/// Full support pmf by sequential Bernoulli convolution — O(n²), written
/// independently of the prob/ module so brute force is a real oracle.
std::vector<double> FullPmf(const std::vector<double>& probs) {
  std::vector<double> pmf{1.0};
  for (double p : probs) {
    std::vector<double> next(pmf.size() + 1, 0.0);
    for (std::size_t j = 0; j < pmf.size(); ++j) {
      next[j] += pmf[j] * (1.0 - p);
      next[j + 1] += pmf[j] * p;
    }
    pmf = std::move(next);
  }
  return pmf;
}

double TailFromPmf(const std::vector<double>& pmf, std::size_t k) {
  double tail = 0.0;
  for (std::size_t j = pmf.size(); j-- > k;) tail += pmf[j];
  return k == 0 ? 1.0 : tail;
}

Result<MiningResult> MineBruteForceExpected(
    const FlatView& view, const ExpectedSupportParams& params,
    const MinerOptions& options) {
  const double threshold =
      params.min_esup * static_cast<double>(view.num_transactions());
  const std::size_t n_items = view.num_items();
  MiningResult result;

  // DFS over itemsets in lexicographic order; expected support is
  // anti-monotone so pruning is exact.
  struct Frame {
    Itemset itemset;
    Containment cont;
  };
  JoinScratch scratch;
  auto dfs = [&](auto&& self, const Frame& frame) -> void {
    for (ItemId next = frame.itemset.empty() ? 0 : frame.itemset.items().back() + 1;
         next < n_items; ++next) {
      // Checkpoint: one per enumerated candidate (the registry's miner
      // converts the throw into a Status).
      PollRunContext(&options.run_context);
      result.counters().candidates_generated++;
      Containment ext = frame.itemset.empty()
                            ? SingleItem(view, next)
                            : Extend(view, frame.cont, next, scratch);
      const double esup = ext.Esup();
      if (esup < threshold) continue;
      Frame child{frame.itemset.empty() ? Itemset{next}
                                        : frame.itemset.Union(next),
                  std::move(ext)};
      FrequentItemset fi;
      fi.itemset = child.itemset;
      fi.expected_support = esup;
      fi.variance = esup - child.cont.SqSum();
      result.Add(std::move(fi));
      self(self, child);
    }
  };
  dfs(dfs, Frame{});
  result.SortCanonical();
  return result;
}

Result<MiningResult> MineBruteForceProbabilistic(
    const FlatView& view, const ProbabilisticParams& params,
    const MinerOptions& options) {
  const std::size_t msc = params.MinSupportCount(view.num_transactions());
  const std::size_t n_items = view.num_items();
  MiningResult result;

  struct Frame {
    Itemset itemset;
    Containment cont;
  };
  JoinScratch scratch;
  auto dfs = [&](auto&& self, const Frame& frame) -> void {
    for (ItemId next = frame.itemset.empty() ? 0 : frame.itemset.items().back() + 1;
         next < n_items; ++next) {
      // Checkpoint: one per enumerated candidate (the registry's miner
      // converts the throw into a Status).
      PollRunContext(&options.run_context);
      result.counters().candidates_generated++;
      Containment ext = frame.itemset.empty()
                            ? SingleItem(view, next)
                            : Extend(view, frame.cont, next, scratch);
      if (ext.probs.size() < msc) continue;  // support can never reach msc
      result.counters().exact_tail_evals++;
      const double tail = TailFromPmf(FullPmf(ext.probs), msc);
      if (!(tail > params.pft)) continue;
      Frame child{frame.itemset.empty() ? Itemset{next}
                                        : frame.itemset.Union(next),
                  std::move(ext)};
      FrequentItemset fi;
      fi.itemset = child.itemset;
      fi.expected_support = child.cont.Esup();
      fi.variance = fi.expected_support - child.cont.SqSum();
      fi.frequent_probability = tail;
      result.Add(std::move(fi));
      self(self, child);
    }
  };
  dfs(dfs, Frame{});
  result.SortCanonical();
  return result;
}

}  // namespace

UFIM_REGISTER_MINER("BruteForceExpected", /*exact=*/true,
                    /*production=*/false, MineBruteForceExpected)

UFIM_REGISTER_MINER("BruteForceProbabilistic", /*exact=*/true,
                    /*production=*/false, MineBruteForceProbabilistic)

}  // namespace ufim
