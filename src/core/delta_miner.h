#ifndef UFIM_CORE_DELTA_MINER_H_
#define UFIM_CORE_DELTA_MINER_H_

#include <cstddef>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "core/miner.h"
#include "core/sharded_miner.h"
#include "core/streaming_flat_view.h"

namespace ufim {

/// Incremental mining driver over a `StreamingFlatView`: the streaming
/// counterpart of `ShardedMiner`'s SON scheme, with the shard structure
/// given by arrival order instead of a static partition.
///
/// `MineNext(batch)` builds the batch's own `FlatView`, mines it as a
/// shard with the inner miner at the same min_esup ratio, unions the
/// shard-local frequent itemsets into a persistent candidate pool,
/// appends the batch view to the stream, and recounts the pool exactly
/// over the full stream (`RecountExpectedCandidates`). The batch shards
/// mined across the stream's lifetime partition the database, so the
/// SON pigeonhole applies at every point: an itemset that is globally
/// frequent *now* was locally frequent in at least one batch shard when
/// that shard arrived and therefore sits in the pool — the recount
/// returns the exact full-database answer, identical (itemsets and
/// moments) to mining the accumulated database from scratch. Note the
/// pool keeps every shard-local candidate, not just previously-global
/// ones: an itemset can be locally frequent long before it is globally
/// frequent, and dropping it then would lose it forever.
///
/// The shard mine reads only the batch's view, never the stream, so
/// results and counters are bit-identical whatever the compaction policy
/// (the streaming differential harness pins this).
///
/// Only expected-support tasks are supported — the same additivity
/// restriction as `ShardedMiner`.
///
/// **Incremental recount.** Expected support (Definition 1) is a sum
/// over transactions, so an append only adds terms. The miner carries
/// each size->=2 pool candidate's Kahan state, Σp², covered watermark
/// and join driver (`RecountState`) from one completed recount to the
/// next, and the next recount joins only the transactions appended
/// since. The result stays bit-identical to a from-scratch recount: the
/// suffix join drives from the full view's `JoinDriver`, a pair may
/// keep its state across a driver change (`a * b == b * a`), a
/// candidate of three or more items whose driver changed is recounted
/// from tid 0 (so is a newly admitted one), and the carried states are
/// replaced only when a recount completes. Singletons read the view's
/// cached moments. See `RecountExpectedCandidates`.
///
/// **Batch sizing.** The per-shard threshold is min_esup * |batch|;
/// when that drops below ~1 expected occurrence, *every* itemset a
/// transaction contains is locally frequent and the candidate pool
/// explodes combinatorially — the classic SON degenerate regime, shared
/// with very small `ShardedMiner` shards. Keep batches large enough
/// that min_esup * batch_size stays comfortably above 1 (a few
/// occurrences). A batch then costs the shard mine plus joins over the
/// batch's own transactions for every carried candidate, and a full
/// join only for candidates that are new or whose driver moved, rather
/// than a join over the whole stream for every candidate.
class DeltaMiner {
 public:
  /// Wraps `inner` (an expected-support miner; typically registry-made).
  /// The stream starts empty; feed transactions through `MineNext`. The
  /// shard mine and the recount run at the inner miner's
  /// `num_threads` and poll its `run_context`.
  DeltaMiner(std::unique_ptr<Miner> inner, ExpectedSupportParams params,
             CompactionPolicy policy = {});

  /// "Delta(<inner name>)".
  std::string_view name() const { return name_; }

  /// Appends `batch` to the stream and returns the exact mining result
  /// over every transaction appended so far. An empty batch re-mines the
  /// current state (recount only): it appends nothing, triggers no
  /// policy compaction, and moves no shard bookkeeping.
  ///
  /// **Transactional.** The batch is appended only after its shard mine
  /// succeeds: if the inner shard mine fails (including cancellation
  /// through the inner miner's RunContext), the error is returned and
  /// the stream, the candidate pool and the shard count are as they
  /// were. Retrying the same batch after a transient failure appends it
  /// exactly once and yields the same result as if the failure never
  /// happened. The batch is appended before the recount, so a
  /// recount-phase failure leaves a consistent stream that an
  /// empty-batch retry re-mines.
  ///
  /// **Threads.** Calls to MineNext must still be serialized by the
  /// caller (it is the stream's one writer), but the shard mine reads
  /// only the batch, and the expensive recount phase runs over a
  /// `Snapshot()` taken after the append; both run outside the miner's
  /// write mutex — so an explicit `Compact()` from another thread may
  /// overlap them freely without changing a bit of the result.
  Result<MiningResult> MineNext(std::span<const Transaction> batch);

  /// Read-only storage access. Mutation stays behind MineNext (and the
  /// Compact forwarder below): appending to the view directly would
  /// bypass the shard mine and silently break exactness.
  const StreamingFlatView& view() const { return view_; }

  /// Forces a compaction — a layout change only, never a result change
  /// (the differential harness pins this). Serialized with MineNext's
  /// mutation phase by the miner's write mutex, so it may be called
  /// from another thread even while a MineNext recount is in flight:
  /// the recount reads a frozen snapshot, and copy-on-compact leaves
  /// retired storage untouched.
  void Compact() {
    MutexLock lock(write_mu_);
    view_.AssertSoleWriter();
    view_.Compact();
  }

  /// Batch shards mined so far (== successful MineNext calls with a
  /// non-empty batch).
  std::size_t shards_mined() const {
    MutexLock lock(write_mu_);
    return shards_mined_;
  }

  /// Distinct shard-local frequent itemsets accumulated for recounting.
  std::size_t candidate_pool_size() const {
    MutexLock lock(write_mu_);
    return pool_.size();
  }

 private:
  std::unique_ptr<Miner> inner_;
  ExpectedSupportParams params_;
  std::string name_;

  /// Serializes stream mutation + snapshot acquisition (MineNext's
  /// append, explicit Compact) and guards the pool and shard
  /// bookkeeping. The shard mine and the recount deliberately run
  /// outside it.
  mutable Mutex write_mu_;
  StreamingFlatView view_;
  std::size_t shards_mined_ UFIM_GUARDED_BY(write_mu_) = 0;
  /// Every shard-local frequent itemset so far, in itemset order (the
  /// recount's canonical candidate order).
  std::set<Itemset> pool_ UFIM_GUARDED_BY(write_mu_);
  /// The size->=2 candidates' moments as of the last completed recount,
  /// sorted by itemset. Read and replaced only by the recount phase,
  /// which the caller-serialized MineNext runs outside the write mutex.
  std::vector<RecountState> recount_state_;
};

/// Builds a `DeltaMiner` around a registry algorithm — the streaming
/// entry point behind the `Miner` facade: any registered expected-support
/// algorithm can serve as the shard miner, created with `options`, whose
/// thread count and token the whole `MineNext` then uses. NotFound for
/// unregistered names, InvalidArgument for non-expected-support
/// algorithms.
Result<std::unique_ptr<DeltaMiner>> MakeDeltaMiner(
    std::string_view algorithm, const ExpectedSupportParams& params,
    const MinerOptions& options = {}, CompactionPolicy policy = {});

}  // namespace ufim

#endif  // UFIM_CORE_DELTA_MINER_H_
