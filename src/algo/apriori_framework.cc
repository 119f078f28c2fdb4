#include "algo/apriori_framework.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/math_util.h"
#include "common/thread_pool.h"
#include "prob/bound_cascade.h"
#include "prob/chernoff.h"

namespace ufim {

std::vector<ItemStats> CollectItemStats(const FlatView& view) {
  const std::size_t n_items = view.num_items();
  std::vector<ItemStats> out;
  out.reserve(n_items);
  for (std::size_t i = 0; i < n_items; ++i) {
    const ItemId item = static_cast<ItemId>(i);
    const double esup = view.ItemExpectedSupport(item);
    if (esup > 0.0) {
      out.push_back(ItemStats{item, esup, view.ItemSquaredSum(item)});
    }
  }
  return out;
}

std::vector<Itemset> GenerateCandidates(const std::vector<Itemset>& frequent_k,
                                        std::uint64_t* pruned) {
  std::vector<Itemset> candidates;
  if (frequent_k.empty()) return candidates;
  // Membership set for the subset-pruning step (lookup only, never
  // iterated — named so the unordered-iteration lint can tell it apart
  // from the ordered result vectors).
  std::unordered_set<Itemset, ItemsetHash> frequent_lookup(frequent_k.begin(),
                                                           frequent_k.end());
  for (std::size_t i = 0; i < frequent_k.size(); ++i) {
    // frequent_k is sorted, so all joins of i share a contiguous range of
    // prefix-compatible partners directly after i.
    for (std::size_t j = i + 1; j < frequent_k.size(); ++j) {
      if (!Itemset::SharesPrefix(frequent_k[i], frequent_k[j])) break;
      Itemset joined = frequent_k[i].Union(frequent_k[j].items().back());
      // Downward closure: every k-subset must be frequent. The two join
      // parents are subsets by construction; check the remaining k-1.
      bool ok = true;
      for (std::size_t drop = 0; drop + 2 < joined.size() && ok; ++drop) {
        if (frequent_lookup.find(joined.WithoutIndex(drop)) ==
            frequent_lookup.end()) {
          ok = false;
        }
      }
      if (ok) {
        candidates.push_back(std::move(joined));
      } else if (pruned != nullptr) {
        ++*pruned;
      }
    }
  }
  return candidates;
}

namespace {

/// Joins one candidate's posting arrays through the shared FlatView
/// batch kernel, filling `stats` with esup / Σp² (+ probs when
/// requested). `decremental_threshold >= 0` abandons the join, at batch
/// granularity, once even one unit of probability per remaining driver
/// posting cannot reach the threshold — the batch boundaries are a pure
/// function of the driver length, so the abandonment schedule (and with
/// it the partial sums of abandoned candidates) is identical at every
/// thread count and under every intersect kernel.
void JoinCandidate(const FlatView& view, const Itemset& candidate,
                   bool collect_probs, double decremental_threshold,
                   JoinScratch& scratch, CandidateStats& stats) {
  const bool decremental = decremental_threshold >= 0.0;

  KahanSum esup;
  bool reserved = false;
  view.JoinPostingsBatched(candidate, scratch, [&](const JoinBatch& batch) {
    if (collect_probs && !reserved) {
      // The join emits at most one probability per driver (shortest
      // member) posting; reserving that upper bound on the first batch
      // kills the push_back reallocation churn of the exact-algorithm
      // levels.
      stats.probs.reserve(batch.driver_len);
      reserved = true;
    }
    for (const double prod : batch.prods) {
      esup.Add(prod);
      stats.sq_sum += prod * prod;
    }
    if (collect_probs) {
      stats.probs.insert(stats.probs.end(), batch.prods.begin(),
                         batch.prods.end());
    }
    if (decremental && batch.driver_done < batch.driver_len) {
      // Each remaining driver posting contributes at most 1 to esup.
      const double optimistic =
          esup.value() +
          static_cast<double>(batch.driver_len - batch.driver_done);
      if (optimistic < decremental_threshold) return false;
    }
    return true;
  });
  stats.esup = esup.value();
  // The driver-length reserve is an upper bound; on sparse joins most
  // of it goes unused, and stats outlives the join inside the caller's
  // whole result vector — trim badly over-reserved candidates so the
  // retained footprint tracks actual matches.
  if (collect_probs && stats.probs.capacity() > 2 * stats.probs.size()) {
    stats.probs.shrink_to_fit();
  }
}

}  // namespace

std::vector<CandidateStats> EvaluateCandidates(const FlatView& view,
                                               const std::vector<Itemset>& candidates,
                                               bool collect_probs,
                                               double decremental_threshold,
                                               std::size_t num_threads,
                                               const RunContext* context) {
  if (candidates.empty()) return {};
  if (num_threads == 0) num_threads = HardwareThreads();

  // Partitioned by candidate: each candidate's join runs whole on one
  // worker, so per-candidate accumulation (and the decremental
  // abandonment schedule) is exactly the sequential one at every thread
  // count. Each worker reuses one JoinScratch across the candidates it
  // claims (the batch kernel allocates nothing after the first join).
  std::vector<CandidateStats> stats(candidates.size());
  std::vector<JoinScratch> scratches(
      ParallelWorkerCount(candidates.size(), num_threads));
  ParallelFor(
      candidates.size(), num_threads,
      [&](std::size_t c, std::size_t worker) {
        PollRunContext(context);  // checkpoint: one per candidate join
        JoinCandidate(view, candidates[c], collect_probs,
                      decremental_threshold, scratches[worker], stats[c]);
      },
      context);
  return stats;
}

namespace {

/// Verdict of the per-candidate frequency judge, with the counter deltas
/// it incurred. Counters are carried out-of-band (instead of mutated
/// inside the judge) so judging can run in parallel and still aggregate
/// deterministically in candidate order.
struct JudgeOutcome {
  std::optional<FrequentItemset> fi;
  bool bound_rejected = false;
  bool bound_accepted = false;
  bool exact_evaluated = false;
};

/// The third argument is the candidate's stable ordinal in generation
/// order across the whole run (see TailFn in the header).
using JudgeFn = std::function<JudgeOutcome(const Itemset&, CandidateStats&,
                                           std::size_t ordinal)>;

/// Applies `judge` to every candidate; candidate c carries the stable
/// ordinal `ordinal_base + c`. With `judge_threads > 1` the calls run
/// via ParallelFor — each candidate judged whole on one thread and
/// written to its own slot, so the outcome vector is identical to the
/// serial pass for any thread-safe judge.
std::vector<JudgeOutcome> JudgeAll(const std::vector<Itemset>& candidates,
                                   std::vector<CandidateStats>& stats,
                                   const JudgeFn& judge,
                                   std::size_t judge_threads,
                                   std::size_t ordinal_base,
                                   const RunContext* context) {
  std::vector<JudgeOutcome> outcomes(candidates.size());
  ParallelFor(
      candidates.size(), judge_threads,
      [&](std::size_t c, std::size_t /*worker*/) {
        PollRunContext(context);  // checkpoint: one per judged candidate
        outcomes[c] = judge(candidates[c], stats[c], ordinal_base + c);
      },
      context);
  return outcomes;
}

/// Shared level-wise loop. `judge` decides frequency and produces the
/// result annotation for one candidate given its scan statistics; an
/// empty outcome marks the candidate infrequent. `num_threads`
/// parallelizes support counting, `judge_threads` the judging (> 1 only
/// for thread-safe judges).
std::vector<FrequentItemset> LevelWiseLoop(
    const FlatView& view, const JudgeFn& judge, bool collect_probs,
    double decremental_threshold, MiningCounters* counters,
    std::size_t num_threads, std::size_t judge_threads,
    const RunContext* context) {
  std::vector<FrequentItemset> results;
  PollRunContext(context);  // checkpoint: run entry

  // Level 1: items, straight off the view's cached moments; the per-item
  // posting arrays already hold the per-transaction probabilities.
  std::vector<ItemStats> item_stats = CollectItemStats(view);
  if (counters != nullptr) {
    ++counters->database_scans;
    counters->candidates_generated += item_stats.size();
  }
  std::vector<Itemset> level;
  {
    std::vector<Itemset> singles;
    std::vector<CandidateStats> stats;
    singles.reserve(item_stats.size());
    stats.reserve(item_stats.size());
    for (const ItemStats& is : item_stats) {
      singles.push_back(Itemset{is.item});
      CandidateStats cs;
      cs.esup = is.esup;
      cs.sq_sum = is.sq_sum;
      if (collect_probs) {
        // Segment-aware (not PostingProbs) so the exact probabilistic
        // algorithms run unchanged on streaming views.
        view.AppendPostingProbs(is.item, cs.probs);
      }
      stats.push_back(std::move(cs));
    }
    std::vector<JudgeOutcome> outcomes = JudgeAll(
        singles, stats, judge, judge_threads, /*ordinal_base=*/0, context);
    for (std::size_t c = 0; c < singles.size(); ++c) {
      if (counters != nullptr) {
        counters->candidates_rejected_bound += outcomes[c].bound_rejected;
        counters->candidates_accepted_bound += outcomes[c].bound_accepted;
        counters->exact_tail_evals += outcomes[c].exact_evaluated;
      }
      if (outcomes[c].fi.has_value()) {
        level.push_back(singles[c]);
        results.push_back(std::move(*outcomes[c].fi));
      }
    }
  }
  std::sort(level.begin(), level.end());

  // Stable candidate numbering in generation order: level 1 used
  // [0, #items); each later level's candidates follow contiguously. The
  // numbering is a pure function of the database and parameters — never
  // of thread count — which is what makes ordinal-derived RNG streams
  // deterministic.
  std::size_t ordinal_base = item_stats.size();

  // Levels k >= 2.
  while (!level.empty()) {
    PollRunContext(context);  // checkpoint: one per level
    std::uint64_t pruned = 0;
    std::vector<Itemset> candidates = GenerateCandidates(level, &pruned);
    if (counters != nullptr) {
      counters->candidates_pruned_apriori += pruned;
    }
    if (candidates.empty()) break;
    if (counters != nullptr) {
      ++counters->database_scans;
      counters->candidates_generated += candidates.size();
    }
    std::vector<CandidateStats> stats =
        EvaluateCandidates(view, candidates, collect_probs,
                           decremental_threshold, num_threads, context);
    std::vector<JudgeOutcome> outcomes = JudgeAll(
        candidates, stats, judge, judge_threads, ordinal_base, context);
    ordinal_base += candidates.size();
    std::vector<Itemset> next;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (counters != nullptr) {
        counters->candidates_rejected_bound += outcomes[c].bound_rejected;
        counters->candidates_accepted_bound += outcomes[c].bound_accepted;
        counters->exact_tail_evals += outcomes[c].exact_evaluated;
      }
      if (outcomes[c].fi.has_value()) {
        next.push_back(candidates[c]);
        results.push_back(std::move(*outcomes[c].fi));
      }
    }
    std::sort(next.begin(), next.end());
    level = std::move(next);
  }
  return results;
}

}  // namespace

std::vector<FrequentItemset> MineAprioriGeneric(const FlatView& view,
                                                const AprioriCallbacks& callbacks,
                                                double decremental_threshold,
                                                MiningCounters* counters,
                                                std::size_t num_threads,
                                                const RunContext* context) {
  auto judge = [&callbacks](const Itemset& itemset, CandidateStats& cs,
                            std::size_t /*ordinal*/) -> JudgeOutcome {
    JudgeOutcome out;
    if (!callbacks.is_frequent(cs.esup, cs.sq_sum)) return out;
    FrequentItemset fi;
    fi.itemset = itemset;
    fi.expected_support = cs.esup;
    fi.variance = cs.esup - cs.sq_sum;
    if (callbacks.frequent_probability) {
      fi.frequent_probability = callbacks.frequent_probability(cs.esup, cs.sq_sum);
    }
    out.fi = std::move(fi);
    return out;
  };
  // Judging stays on the calling thread: AprioriCallbacks carry no
  // thread-safety contract, and the predicates are O(1) anyway.
  return LevelWiseLoop(view, judge, /*collect_probs=*/false, decremental_threshold,
                       counters, num_threads, /*judge_threads=*/1, context);
}

std::vector<FrequentItemset> MineProbabilisticApriori(
    const FlatView& view, std::size_t msc, double pft, const TailFn& tail_fn,
    const ProbabilisticLoopOptions& options, MiningCounters* counters) {
  const bool cascade = options.prefilter == PrefilterMode::kBounds &&
                       options.certified_tail;
  auto judge = [&](const Itemset& itemset, CandidateStats& cs,
                   std::size_t ordinal) -> JudgeOutcome {
    JudgeOutcome out;
    if (options.use_chernoff && ChernoffCertifiesInfrequent(cs.esup, msc, pft)) {
      out.bound_rejected = true;
      return out;
    }
    bool accept_certified = false;
    if (cascade) {
      const TailInterval interval =
          CertifiedTailInterval(cs.esup, cs.esup - cs.sq_sum, msc);
      switch (ClassifyTail(interval, pft)) {
        case BoundDecision::kReject:
          // Certified Pr(sup >= msc) <= pft: the exact tail could only
          // confirm infrequency, so skip it — the one place the cascade
          // saves the expensive evaluation.
          out.bound_rejected = true;
          return out;
        case BoundDecision::kAccept:
          // Certified frequent — but the reported annotation must stay
          // the exact tail value (identical output with the prefilter
          // off), so fall through to the evaluation and only count it.
          accept_certified = true;
          break;
        case BoundDecision::kUndecided:
          break;
      }
    }
    out.exact_evaluated = true;
    out.bound_accepted = accept_certified;
    const double tail = tail_fn(cs.probs, msc, ordinal);
    if (!(tail > pft)) return out;
    FrequentItemset fi;
    fi.itemset = itemset;
    fi.expected_support = cs.esup;
    fi.variance = cs.esup - cs.sq_sum;
    fi.frequent_probability = tail;
    out.fi = std::move(fi);
    return out;
  };
  return LevelWiseLoop(
      view, judge, /*collect_probs=*/true,
      /*decremental_threshold=*/-1.0, counters, options.num_threads,
      /*judge_threads=*/options.parallel_tails ? options.num_threads : 1,
      options.context);
}

}  // namespace ufim
