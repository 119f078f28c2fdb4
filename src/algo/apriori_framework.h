#ifndef UFIM_ALGO_APRIORI_FRAMEWORK_H_
#define UFIM_ALGO_APRIORI_FRAMEWORK_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/flat_view.h"
#include "core/miner.h"
#include "core/mining_result.h"

namespace ufim {

/// Shared machinery of every generate-and-test (breadth-first) miner in
/// the paper: UApriori, PDUApriori, NDUApriori and the exact DP/DC
/// algorithms all instantiate this framework with different frequency
/// predicates. Keeping one audited implementation of candidate
/// generation and support counting is exactly the "common subroutines"
/// uniformity the paper's experimental methodology demands (§4.1).
///
/// Support counting runs over the columnar `FlatView`. Level 2 of
/// `MineAprioriGeneric` (UApriori, PDUApriori, NDUApriori) counts every
/// pair of frequent items in one triangular pass over the view's
/// rank-projected rows (Borgelt, FIMI'03), without generating pair
/// candidates. Every other level, the probabilistic loop's levels, and
/// the SON recounts of `ShardedMiner` and `DeltaMiner` count each
/// candidate by a merge-join of its members' posting arrays
/// (`EvaluateCandidates`). Both ways sum the same products in the same
/// transaction-id order, so every path reports the same bits for the
/// same itemset.
///
/// Counting is parallel when `num_threads > 1`, and deterministically so:
/// the triangle partitions by first item and the join by candidate, each
/// unit counted whole on one thread, so results are bit-identical at
/// every thread count, including the `num_threads = 1` sequential
/// fallback.

/// Accumulated statistics for one candidate after a database scan.
struct CandidateStats {
  double esup = 0.0;    ///< Σ_t Pr(X ⊆ T_t)       — expected support
  double sq_sum = 0.0;  ///< Σ_t Pr(X ⊆ T_t)²      — gives Var = esup - sq_sum
  std::vector<double> probs;  ///< nonzero containment probs (optional)
};

/// Per-item statistics from the initial scan.
struct ItemStats {
  ItemId item = 0;
  double esup = 0.0;
  double sq_sum = 0.0;
};

/// Item-level moments from the view's cached per-item arrays (items with
/// zero support omitted). O(num_items) on a full view.
std::vector<ItemStats> CollectItemStats(const FlatView& view);

/// Classic Apriori candidate generation: joins lexicographically sorted
/// frequent k-itemsets sharing a (k-1)-prefix and prunes joins that have
/// an infrequent k-subset (downward closure). `pruned` (optional) counts
/// the subset-pruned candidates.
std::vector<Itemset> GenerateCandidates(const std::vector<Itemset>& frequent_k,
                                        std::uint64_t* pruned);

/// Evaluates all `candidates` (any mixture of sizes >= 2) over the
/// columnar view by posting-list merge-joins: each candidate is driven
/// from its shortest member posting array, the other members' cursors
/// advanced monotonically, and its esup is one Kahan sum of the
/// containment probabilities in ascending transaction order. Callers:
/// the level-wise loop at levels k >= 3 (and at every level of the
/// probabilistic loop), and the exact recounts of `ShardedMiner` and
/// `DeltaMiner`.
///
/// `collect_probs` stores the nonzero per-transaction probabilities in
/// ascending transaction order (needed by the exact probabilistic
/// algorithms).
///
/// `decremental_threshold`, when >= 0, enables UApriori's decremental
/// pruning: after each join batch, a candidate whose optimistic bound
/// esup_so_far + (driver postings remaining) can no longer reach the
/// threshold is abandoned. Abandoned candidates report whatever they
/// accumulated; they are guaranteed infrequent. The batch boundaries
/// depend only on the driver length, so abandoned candidates report the
/// same partial sums at every thread count and under every kernel.
///
/// `num_threads`: 0 means all hardware threads, 1 (the default) the
/// sequential baseline.
///
/// `context`, when non-null, is polled once per candidate join; a trip
/// unwinds with RunAbortedError.
std::vector<CandidateStats> EvaluateCandidates(const FlatView& view,
                                               const std::vector<Itemset>& candidates,
                                               bool collect_probs,
                                               double decremental_threshold = -1.0,
                                               std::size_t num_threads = 1,
                                               const RunContext* context = nullptr);

/// Hooks instantiating the framework for a concrete algorithm.
struct AprioriCallbacks {
  /// Frequency predicate over the accumulated (esup, Σp²). Must be
  /// anti-monotone in the itemset for the Apriori pruning to be exact
  /// (true for every instantiation in the paper).
  std::function<bool(double esup, double sq_sum)> is_frequent;

  /// Optional annotation: the frequent probability to record on results
  /// (approximate algorithms), or nullopt (expected-support algorithms).
  std::function<std::optional<double>(double esup, double sq_sum)> frequent_probability;
};

/// Runs the level-wise mining loop with the given hooks. Results carry
/// esup/variance (+ optional frequent probability) and are canonically
/// sorted by the caller if needed. Level 2 is one triangular pass over
/// all pairs of frequent items, counted whole; `decremental_threshold`
/// (as above, only meaningful when the predicate is an esup threshold)
/// acts on the joins of levels k >= 3. The pass holds F(F-1)/2 × 16 B of
/// pair moments plus one rank projection of the view, allocated through
/// the tracked heap so a `RunContext` memory budget sees them.
/// `num_threads` parallelizes support counting; the callbacks are
/// always invoked from the calling thread, so they need not be
/// thread-safe. `context`, when non-null, is polled per level, once
/// the pair pass has allocated, per pair-pass first item, per candidate
/// evaluation and per judged candidate; a trip unwinds with
/// RunAbortedError (the Miner facade converts it to a Status).
std::vector<FrequentItemset> MineAprioriGeneric(const FlatView& view,
                                                const AprioriCallbacks& callbacks,
                                                double decremental_threshold,
                                                MiningCounters* counters,
                                                std::size_t num_threads = 1,
                                                const RunContext* context = nullptr);

/// Tail evaluator of the probabilistic apriori loop: Pr(sup >= msc) from
/// a candidate's nonzero containment probabilities. `candidate_ordinal`
/// is the candidate's stable index in generation order across the whole
/// run — a pure function of the database and parameters, identical at
/// every thread count — so estimators that need randomness can derive a
/// counter-based per-candidate RNG stream from it (DeriveStreamSeed)
/// instead of consuming a shared sequential stream. Pure evaluators (DP,
/// DC) simply ignore it.
///
/// Contract: the loop evaluates tails on `num_threads` workers in any
/// order, so a `TailFn` must be a pure function of its arguments,
/// `candidate_ordinal` included (per-thread scratch is fine; shared
/// mutable state, such as one sequential RNG, is not).
using TailFn = std::function<double(const std::vector<double>& probs,
                                    std::size_t msc,
                                    std::size_t candidate_ordinal)>;

/// Execution options of the probabilistic level-wise loop.
struct ProbabilisticLoopOptions {
  /// Per-candidate O(1) Chernoff test on esup before the tail (part of
  /// the bounded algorithm variants DPB/DCB and of MCSampling's
  /// definition; counted under candidates_rejected_bound).
  bool use_chernoff = false;
  /// Bound-cascade prefilter (kBounds): candidates whose certified
  /// two-sided interval (prob/bound_cascade.h) excludes pft skip the
  /// tail. Applies only when `certified_tail` is also true.
  PrefilterMode prefilter = PrefilterMode::kOff;
  /// True when `tail_fn` computes the true tail (DP/DC), so a certified
  /// analytic bound may overrule it. False for estimators (MCSampling):
  /// the cascade could contradict the estimate and change the reported
  /// result set, so the framework never applies it there.
  bool certified_tail = true;
  /// Worker threads for candidate counting and tail evaluation (0 = all
  /// hardware threads).
  std::size_t num_threads = 1;
  /// Cancellation/deadline/budget token, polled per level, per candidate
  /// evaluation and per judged candidate; nullptr = unconstrained.
  const RunContext* context = nullptr;
};

/// The probabilistic variant of the level-wise loop: per candidate, the
/// O(1) screens above (Chernoff, bound cascade), then the tail
/// Pr(sup >= msc) via `tail_fn` (DP, DC or an estimator). Frequent iff
/// tail > pft; the reported frequent_probability is always the tail_fn
/// value, never a bound, so the prefilter cannot change reported results
/// — certified *rejects* skip the tail, certified *accepts* are counted
/// (candidates_accepted_bound) but still evaluated for the annotation.
std::vector<FrequentItemset> MineProbabilisticApriori(
    const FlatView& view, std::size_t msc, double pft, const TailFn& tail_fn,
    const ProbabilisticLoopOptions& options, MiningCounters* counters);

}  // namespace ufim

#endif  // UFIM_ALGO_APRIORI_FRAMEWORK_H_
