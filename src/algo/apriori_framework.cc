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
/// deterministically in candidate order. The judge leaves `fi->itemset`
/// empty; the loop fills it, so pairs get an `Itemset` only when frequent.
struct JudgeOutcome {
  std::optional<FrequentItemset> fi;
  bool bound_rejected = false;
  bool bound_accepted = false;
  bool exact_evaluated = false;
};

/// The second argument is the candidate's stable ordinal in generation
/// order across the whole run (see TailFn in the header).
using JudgeFn = std::function<JudgeOutcome(CandidateStats&, std::size_t ordinal)>;

/// Applies `judge` to every candidate's stats; candidate c carries the
/// stable ordinal `ordinal_base + c`. With `judge_threads > 1` the calls
/// run via ParallelFor — each candidate judged whole on one thread and
/// written to its own slot, so the outcome vector is identical to the
/// serial pass for any thread-safe judge.
std::vector<JudgeOutcome> JudgeAll(std::vector<CandidateStats>& stats,
                                   const JudgeFn& judge,
                                   std::size_t judge_threads,
                                   std::size_t ordinal_base,
                                   const RunContext* context) {
  std::vector<JudgeOutcome> outcomes(stats.size());
  ParallelFor(
      stats.size(), judge_threads,
      [&](std::size_t c, std::size_t /*worker*/) {
        PollRunContext(context);  // checkpoint: one per judged candidate
        outcomes[c] = judge(stats[c], ordinal_base + c);
      },
      context);
  return outcomes;
}

/// Adds one judged candidate's counter deltas; true when it is frequent.
bool Tally(const JudgeOutcome& outcome, MiningCounters* counters) {
  if (counters != nullptr) {
    counters->candidates_rejected_bound += outcome.bound_rejected;
    counters->candidates_accepted_bound += outcome.bound_accepted;
    counters->exact_tail_evals += outcome.exact_evaluated;
  }
  return outcome.fi.has_value();
}

/// Records a frequent candidate: names its result, then appends it to
/// `results` and to the next level's `frequent`.
void Keep(JudgeOutcome& outcome, Itemset itemset,
          std::vector<FrequentItemset>& results,
          std::vector<Itemset>& frequent) {
  outcome.fi->itemset = itemset;
  frequent.push_back(std::move(itemset));
  results.push_back(std::move(*outcome.fi));
}

/// Moments of one cell of the level-2 triangle.
struct PairMoments {
  double esup = 0.0;
  double sq_sum = 0.0;
};

/// Offset of row a in the upper-triangular array over `f` ranks: row a
/// holds pairs (a, a+1) .. (a, f-1), rows in ascending a — the order
/// `GenerateCandidates` emits pairs of ascending singletons.
std::size_t TriangleRow(std::size_t a, std::size_t f) {
  return a * (2 * f - a - 1) / 2;
}

/// Counts every pair of `rank_to_item` (ascending item ids, at least
/// two) in one pass over the view's rank-projected rows, the
/// triangular array of Borgelt (FIMI'03). Rank a owns row a: for each
/// transaction holding a (walked through a's postings, ascending tid),
/// every later unit b of that row adds p_a·p_b to cell (a, b). Each cell
/// thus sums exactly the products the pair's posting join would, in the
/// same ascending-tid order, into one Kahan sum and one plain Σp² — the
/// moments are bit-identical to `EvaluateCandidates` on the pair. First
/// ranks are claimed dynamically; each is accumulated whole in its
/// worker's private row (separate rows keep small adjacent rows from
/// sharing cache lines) and copied out to its own triangle row, so the
/// result is the same at every thread count.
std::vector<PairMoments> CountPairs(const FlatView& view,
                                    const std::vector<ItemId>& rank_to_item,
                                    std::size_t num_threads,
                                    const RunContext* context) {
  const std::size_t f = rank_to_item.size();
  const FlatView::RankProjection projection =
      view.ProjectOntoRanks(rank_to_item);
  std::vector<PairMoments> triangle(f * (f - 1) / 2);
  struct Cell {
    KahanSum esup;
    double sq_sum = 0.0;
  };
  std::vector<std::vector<Cell>> rows(ParallelWorkerCount(f, num_threads),
                                      std::vector<Cell>(f));
  PollRunContext(context);  // checkpoint: projection and cells allocated

  const TransactionId first = view.begin_tid();
  const FlatView::RankUnit* const units = projection.units.data();
  ParallelFor(
      f, num_threads,
      [&](std::size_t a, std::size_t worker) {
        PollRunContext(context);  // checkpoint: one per first rank
        std::vector<Cell>& row = rows[worker];
        std::fill(row.begin() + a + 1, row.end(), Cell{});
        const SegmentedPostings postings = view.PostingSegments(rank_to_item[a]);
        for (std::size_t si = 0; si < postings.count; ++si) {
          const PostingSegment& seg = postings.seg[si];
          for (std::size_t k = 0; k < seg.len; ++k) {
            const std::size_t t = seg.tids[k] - first;
            const FlatView::RankUnit* const end =
                units + projection.txn_offsets[t + 1];
            // Rows ascend by rank, and the row holds a.
            const FlatView::RankUnit* unit = std::lower_bound(
                units + projection.txn_offsets[t], end, a,
                [](const FlatView::RankUnit& u, std::size_t rank) {
                  return u.rank < rank;
                });
            const double pa = unit->prob;
            for (++unit; unit < end; ++unit) {
              const double prod = pa * unit->prob;
              Cell& cell = row[unit->rank];
              cell.esup.Add(prod);
              cell.sq_sum += prod * prod;
            }
          }
        }
        PairMoments* const out = triangle.data() + TriangleRow(a, f);
        for (std::size_t b = a + 1; b < f; ++b) {
          out[b - a - 1] = PairMoments{row[b].esup.value(), row[b].sq_sum};
        }
      },
      context);
  return triangle;
}

/// Shared level-wise loop. `judge` decides frequency and produces the
/// result annotation for one candidate given its scan statistics; an
/// empty outcome marks the candidate infrequent. `num_threads`
/// parallelizes support counting, `judge_threads` the judging (> 1 only
/// for thread-safe judges). Without `collect_probs`, level 2 is one
/// `CountPairs` pass judged on the calling thread; with it (the
/// probabilistic loop, whose tails need each pair's probability list),
/// every level k >= 2 generates its candidates and joins each one.
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
    std::vector<CandidateStats> stats;
    stats.reserve(item_stats.size());
    for (const ItemStats& is : item_stats) {
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
        stats, judge, judge_threads, /*ordinal_base=*/0, context);
    for (std::size_t c = 0; c < item_stats.size(); ++c) {
      if (Tally(outcomes[c], counters)) {
        Keep(outcomes[c], Itemset{item_stats[c].item}, results, level);
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

  // Level 2 by the triangular pass: pairs are counted whole (decremental
  // pruning acts from level 3) and judged in (a, b) order, the order and
  // ordinals GenerateCandidates would have given them.
  if (!collect_probs && level.size() >= 2) {
    PollRunContext(context);  // checkpoint: one per level
    std::vector<ItemId> rank_to_item;
    rank_to_item.reserve(level.size());
    for (const Itemset& single : level) rank_to_item.push_back(single.items()[0]);
    const std::size_t f = rank_to_item.size();
    if (counters != nullptr) {
      ++counters->database_scans;
      counters->candidates_generated += f * (f - 1) / 2;
    }
    const std::vector<PairMoments> triangle =
        CountPairs(view, rank_to_item, num_threads, context);
    std::vector<Itemset> pairs;
    CandidateStats cs;
    std::size_t c = 0;
    for (std::size_t a = 0; a < f; ++a) {
      for (std::size_t b = a + 1; b < f; ++b, ++c) {
        PollRunContext(context);  // checkpoint: one per judged candidate
        cs.esup = triangle[c].esup;
        cs.sq_sum = triangle[c].sq_sum;
        JudgeOutcome outcome = judge(cs, ordinal_base + c);
        if (Tally(outcome, counters)) {
          Keep(outcome, Itemset{rank_to_item[a], rank_to_item[b]}, results,
               pairs);
        }
      }
    }
    ordinal_base += triangle.size();
    level = std::move(pairs);
  }

  // Levels k >= 2 (k >= 3 after the triangular pass).
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
    std::vector<JudgeOutcome> outcomes =
        JudgeAll(stats, judge, judge_threads, ordinal_base, context);
    ordinal_base += candidates.size();
    std::vector<Itemset> next;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (Tally(outcomes[c], counters)) {
        Keep(outcomes[c], std::move(candidates[c]), results, next);
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
  auto judge = [&callbacks](CandidateStats& cs,
                            std::size_t /*ordinal*/) -> JudgeOutcome {
    JudgeOutcome out;
    if (!callbacks.is_frequent(cs.esup, cs.sq_sum)) return out;
    FrequentItemset fi;
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
  auto judge = [&](CandidateStats& cs, std::size_t ordinal) -> JudgeOutcome {
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
    fi.expected_support = cs.esup;
    fi.variance = cs.esup - cs.sq_sum;
    fi.frequent_probability = tail;
    out.fi = std::move(fi);
    return out;
  };
  return LevelWiseLoop(
      view, judge, /*collect_probs=*/true,
      /*decremental_threshold=*/-1.0, counters, options.num_threads,
      /*judge_threads=*/options.num_threads,
      options.context);
}

}  // namespace ufim
