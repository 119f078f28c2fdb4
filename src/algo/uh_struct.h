#ifndef UFIM_ALGO_UH_STRUCT_H_
#define UFIM_ALGO_UH_STRUCT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/run_context.h"
#include "core/flat_view.h"
#include "core/mining_result.h"

namespace ufim {

/// The UH-Struct + recursive head-table engine behind UH-Mine (Aggarwal
/// et al., KDD'09; paper §3.1.3) — and, with a different frequency
/// predicate, behind NDUH-Mine (§3.3.3).
///
/// Construction projects the database onto the items accepted by the
/// level-1 predicate, re-labels them in descending expected-support
/// order, and lays the projected transactions out contiguously. Mining
/// is H-Mine's depth-first prefix growth: for a prefix X, a head table
/// maps every extension item to the list of (transaction, position,
/// Pr(X ⊆ T)·p) occurrences after X's last position; frequent extensions
/// recurse.
///
/// The engine accumulates both Σp and Σp² per prefix, so the same code
/// path yields expected supports (UH-Mine) and Normal-approximation
/// moments (NDUH-Mine) — the paper's "win-win" combination.
///
/// Mining is a ParallelFor over the top-level ranks: each rank's prefix
/// subtree is explored by one dynamically-claimed index on a worker with
/// its own scratch (accumulators + slot map). When more than one thread
/// runs, a prefix whose head table holds at least max(256, units / 32)
/// occurrences mines its sibling extensions through a nested
/// ParallelFor. Outputs and counters are merged in ascending rank order
/// at every level, so results are bit-identical at every thread count.
/// After construction the engine is immutable; `Mine` is const and safe
/// to call concurrently.
class UHStructEngine {
 public:
  /// Decides whether a prefix with the given moments is frequent and, if
  /// so, what annotation to attach. Must be anti-monotone for the
  /// depth-first pruning to be exact.
  struct Hooks {
    std::function<bool(double esup, double sq_sum)> is_frequent;
    std::function<std::optional<double>(double esup, double sq_sum)>
        frequent_probability;  ///< may be null
  };

  /// Builds the UH-Struct over the columnar view, keeping only items
  /// accepted by `hooks.is_frequent` on their item-level moments (read
  /// off the view's cached per-item arrays).
  UHStructEngine(const FlatView& view, Hooks hooks);

  /// Runs the depth-first mining and returns all frequent itemsets
  /// (unsorted; caller normalizes). `counters` may be null. The
  /// top-level ranks are mined by up to `num_threads` workers (1 =
  /// sequential baseline, 0 = all hardware threads), and a dominant
  /// prefix subtree splits its sibling extensions (see the class
  /// comment); results and counters are identical at every setting. The
  /// hooks must be safe to call concurrently when `num_threads` != 1
  /// (the stateless predicate closures every caller in this repo uses
  /// qualify).
  ///
  /// `context` (optional) is polled at every `Recurse` entry — a
  /// scratch-clean point, so a tripped token unwinds with RunAbortedError
  /// without corrupting pooled scratch — and passed to every nested
  /// ParallelFor so cancelled subtrees stop claiming work.
  std::vector<FrequentItemset> Mine(MiningCounters* counters,
                                    std::size_t num_threads = 1,
                                    const RunContext* context = nullptr) const;

  /// Number of items retained in the head table (for tests).
  std::size_t num_frequent_items() const { return rank_to_item_.size(); }

 private:
  /// One projected unit: item rank (descending-esup order) + probability.
  /// The projection comes straight from FlatView's vertical rank
  /// projection, arrays adopted without conversion.
  using Unit = FlatView::RankUnit;

  /// One occurrence of the current prefix inside a projected transaction.
  struct Occurrence {
    std::uint32_t txn;         ///< projected transaction index
    std::uint32_t next_start;  ///< first unit index eligible as extension
    double prob;               ///< Pr(prefix ⊆ T)
  };

  /// Per-task mining scratch, reused across recursion levels. Each
  /// top-level rank task owns one instance (workers reuse theirs across
  /// the ranks they claim), so concurrent tasks never share accumulators.
  struct Scratch {
    /// Moment accumulators indexed by rank.
    std::vector<double> esup_acc;
    std::vector<double> sq_acc;
    /// Rank -> head-table slot map (UINT32_MAX = not a frequent extension
    /// of the current prefix); restored after each use.
    std::vector<std::uint32_t> slot_of;

    explicit Scratch(std::size_t num_ranks)
        : esup_acc(num_ranks, 0.0),
          sq_acc(num_ranks, 0.0),
          slot_of(num_ranks, UINT32_MAX) {}
  };

  /// Per-Mine-call parallel state: the split threshold plus a pool of
  /// clean Scratch instances leased by split-off extensions (defined in
  /// the .cc). Null means "never split" (serial runs).
  struct MineState;

  void Recurse(std::vector<std::uint32_t>& prefix_ranks,
               const std::vector<Occurrence>& occurrences, Scratch& scratch,
               std::vector<FrequentItemset>& out, MiningCounters* counters,
               MineState* state, const RunContext* context) const;

  FrequentItemset MakeResult(const std::vector<std::uint32_t>& prefix_ranks,
                             double esup, double sq_sum) const;

  Hooks hooks_;
  std::vector<ItemId> rank_to_item_;      ///< rank -> original item id
  std::vector<Unit> units_;               ///< all projected transactions, flattened
  std::vector<std::uint32_t> txn_offsets_;  ///< size = #txns + 1
};

}  // namespace ufim

#endif  // UFIM_ALGO_UH_STRUCT_H_
