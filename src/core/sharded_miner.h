#ifndef UFIM_CORE_SHARDED_MINER_H_
#define UFIM_CORE_SHARDED_MINER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/math_util.h"
#include "core/miner.h"

namespace ufim {

/// One size->=2 candidate's exact moments over the first `upto`
/// transactions of a growing view, carried from one recount to the next
/// so that the next one joins only the appended transactions.
struct RecountState {
  Itemset itemset;
  KahanSum esup;           ///< Kahan state over tids [0, upto), ascending
  double sq_sum = 0.0;     ///< Σ p² over the same terms
  std::size_t upto = 0;    ///< view transactions the moments cover
  std::size_t driver = 0;  ///< `JoinDriver` index the products were taken on
};

/// Phase 2 of the SON (partition) drivers: exact recount of a candidate
/// union over the full view. `singles` and `larger` are canonically
/// sorted, deduplicated candidate itemsets of size 1 / >= 2. Singletons
/// come straight off the view's cached moments; larger sets are posting
/// joins partitioned by candidate, so the ascending-tid Kahan
/// accumulation is the sequential one regardless of thread count.
/// Appends itemsets with expected support >= `threshold` (absolute) to
/// `result` with their exact full-view moments, and bumps its counters
/// (one database scan, one generated candidate each). Shared by
/// `ShardedMiner` (static shards) and `DeltaMiner` (streaming suffix
/// shards) so the two merge paths can never diverge. `context` (optional)
/// is polled once per size->=2 candidate join; a tripped token unwinds
/// with RunAbortedError, which the calling miner's guarded facade
/// converts to a Status.
///
/// `carried` (optional; `ShardedMiner` passes none) makes the recount
/// incremental over a view that only grows at the end. On entry it holds
/// the states a previous recount left, sorted by itemset, over a prefix
/// of `view`; a state is matched to its candidate by merge-walking the
/// two sorted lists. A matched candidate joins only `view`'s
/// transactions `[upto, end)` and continues the carried accumulators,
/// which reproduces the from-scratch moments bit for bit because:
///   - the suffix join drives from the *full* view's `JoinDriver`, so
///     every product is evaluated in the order the full join evaluates
///     it, and the Kahan adds continue in ascending tid order;
///   - a pair keeps its state when its driver changed, because
///     `a * b == b * a` in IEEE arithmetic;
///   - a candidate of three or more items whose driver changed, and a
///     candidate with no carried state, are recounted from tid 0.
/// On success `*carried` is replaced by the states of `larger` over the
/// whole view; a cancelled recount leaves it untouched, so the next
/// call starts from the last completed one.
void RecountExpectedCandidates(const FlatView& view,
                               const std::vector<Itemset>& singles,
                               const std::vector<Itemset>& larger,
                               double threshold, std::size_t num_threads,
                               MiningResult& result,
                               const RunContext* context = nullptr,
                               std::vector<RecountState>* carried = nullptr);

/// Shard-partitioned execution driver: runs any expected-support miner
/// per contiguous transaction shard and merges to the *exact* global
/// answer — the classic SON (partition) scheme, carried by FlatView's
/// O(1) `Slice` views instead of data copies.
///
/// Phase 1 mines every shard independently (in parallel, up to the inner
/// miner's `num_threads` shards in flight) with the same min_esup *ratio*; the
/// shard thresholds ratio * |shard| sum to the global threshold, so by
/// pigeonhole every globally frequent itemset is locally frequent in at
/// least one shard — the union of shard results is a complete candidate
/// superset. Phase 2 recounts that union over the full view (cached
/// item moments for singletons, the parallel counting kernels for
/// larger sets) and keeps exactly the itemsets meeting the global
/// threshold, with their exact full-database moments: no approximation
/// enters at any point, whatever the shard count.
///
/// Determinism: shard boundaries depend only on (view size, num_shards),
/// the candidate union is canonically sorted before recounting, and the
/// recount is partitioned by candidate — so for a fixed shard count the
/// result is bit-identical across thread counts and across runs. The
/// recount sums each candidate's posting-join products in ascending tid
/// order, exactly as the apriori framework counts, so Sharded(UApriori)
/// reports UApriori's moments bit for bit.
///
/// Only expected-support tasks are supported: expected support is
/// additive across shards, which is what makes the local-threshold
/// union argument sound. Probabilistic frequentness is not additive —
/// a probabilistic task is rejected as InvalidArgument rather than
/// answered approximately.
class ShardedMiner final : public Miner {
 public:
  /// Wraps `inner` (an expected-support miner; typically registry-made).
  /// `num_shards` contiguous transaction shards (clamped to the view
  /// size; <= 1 degenerates to a plain delegated run). Shard mining and
  /// the recount run at the inner miner's `num_threads` and poll its
  /// `run_context`, so one token stops both phases.
  ShardedMiner(std::unique_ptr<Miner> inner, std::size_t num_shards);

  /// "Sharded(<inner name>)".
  std::string_view name() const override { return name_; }

  bool Supports(const MiningTask& task) const override;

  /// The merge is exact, so exactness is the inner miner's.
  bool is_exact() const override { return inner_->is_exact(); }

  Result<MiningResult> Mine(const FlatView& view,
                            const MiningTask& task) const override;

  /// The inner miner's options.
  const MinerOptions& options() const override { return inner_->options(); }

  std::size_t num_shards() const { return num_shards_; }

 private:
  std::unique_ptr<Miner> inner_;
  std::string name_;
  std::size_t num_shards_;
};

}  // namespace ufim

#endif  // UFIM_CORE_SHARDED_MINER_H_
