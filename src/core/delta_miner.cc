#include "core/delta_miner.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/miner_registry.h"
#include "core/sharded_miner.h"

namespace ufim {

namespace {

/// Rolls the view's open append transaction back unless the caller
/// committed first — so every early return (and any exception unwinding
/// to the GuardMine boundary) restores the pre-append stream.
class AppendTxnGuard {
 public:
  explicit AppendTxnGuard(StreamingFlatView& view) : view_(view) {}
  ~AppendTxnGuard() {
    // The guard unwinds on behalf of the writer that created it (inside
    // MineNext's serialized batch), so the writer role transfers here.
    view_.AssertSoleWriter();
    if (view_.in_append_txn()) view_.RollbackAppend();
  }
  AppendTxnGuard(const AppendTxnGuard&) = delete;
  AppendTxnGuard& operator=(const AppendTxnGuard&) = delete;

 private:
  StreamingFlatView& view_;
};

}  // namespace

DeltaMiner::DeltaMiner(std::unique_ptr<Miner> inner,
                       ExpectedSupportParams params, CompactionPolicy policy)
    : inner_(std::move(inner)),
      params_(params),
      name_("Delta(" + std::string(inner_->name()) + ")"),
      view_(policy) {}

Result<MiningResult> DeltaMiner::MineNext(std::span<const Transaction> batch) {
  UFIM_RETURN_IF_ERROR(params_.Validate());
  const MiningTask task = params_;
  if (!inner_->Supports(task)) {
    return Status::InvalidArgument(
        name_ + " needs an expected-support inner miner");
  }

  // The guard converts recount-phase checkpoint throws into a clean
  // Status at this facade (the inner miner guards its own Mine).
  const RunContext& context = inner_->options().run_context;
  return internal::GuardMine([&]() -> Result<MiningResult> {
    PollRunContext(&context);  // checkpoint: batch entry

    MiningResult result;
    StreamingSnapshot snap;
    std::vector<Itemset> singles;
    std::vector<Itemset> larger;
    {
      // Mutation phase, under the write mutex (serialized with any
      // concurrent explicit Compact). MineNext calls themselves are
      // caller-serialized; inside this block the thread is the stream's
      // sole writer, which is exactly the writer-role claim.
      MutexLock lock(write_mu_);
      view_.AssertSoleWriter();

      if (batch.empty()) {
        // Pure recount: no append transaction, no policy-compaction
        // side effect, no shard/watermark drift — just freeze the
        // current state for phase 2.
        snap = view_.Snapshot();
      } else {
        // Transactional append: any failure before CommitAppend — inner
        // shard-mine error, cancellation, allocation failure — rolls
        // the batch back to the pre-append watermark on the way out, so
        // a retry of the same batch appends it exactly once.
        view_.BeginAppend();
        AppendTxnGuard rollback_unless_committed(view_);
        view_.Append(batch);
        // ufim-lint: allow(raw-view) consumed before CommitAppend, under the write mutex
        const FlatView full = view_.View();
        const std::size_t n_txn = full.num_transactions();

        // Phase 1: mine the appended suffix as its own SON shard, at
        // the same min_esup ratio (the shard threshold is ratio *
        // |shard|, exactly as ShardedMiner's static shards). The slice
        // spans the base/delta seam transparently, so this works
        // identically pre- and post-compaction.
        const FlatView suffix = full.Slice(mined_upto_, n_txn);
        Result<MiningResult> local = inner_->Mine(suffix, task);
        UFIM_RETURN_IF_ERROR(local.status());
        result.counters() += local->counters();
        const std::uint64_t admit_gen = view_.generation();
        for (const FrequentItemset& fi : local->itemsets()) {
          // emplace keeps the first admission's generation on
          // re-discovery by a later shard.
          pool_.emplace(fi.itemset, admit_gen);
        }
        mined_upto_ = n_txn;
        ++shards_mined_;
        // The shard is mined and the pool updated — commit (running any
        // deferred compaction) before snapshotting, so a recount
        // failure leaves a consistent stream that an empty-batch call
        // re-mines, and the snapshot freezes the committed state.
        view_.CommitAppend();
        snap = view_.Snapshot();
      }

      // Canonical candidate order keeps the recount independent of pool
      // insertion history (and of the unordered_map's iteration order).
      // ufim-lint: allow(unordered-iteration) order erased by the sorts below
      for (const auto& [is, admitted] : pool_) {
        static_cast<void>(admitted);
        (is.size() == 1 ? singles : larger).push_back(is);
      }
      std::sort(singles.begin(), singles.end());
      std::sort(larger.begin(), larger.end());
    }

    // Phase 2: exact recount of the whole candidate pool over the
    // frozen snapshot, outside the write mutex — a concurrent explicit
    // Compact cannot perturb it (copy-on-compact leaves the snapshot's
    // storage untouched), and the result is bit-identical either way.
    // Carried candidates join only the transactions appended since the
    // last completed recount.
    const double threshold =
        params_.min_esup * static_cast<double>(snap.watermark());
    RecountExpectedCandidates(snap.view(), singles, larger, threshold,
                              inner_->options().num_threads, result,
                              &context, &recount_state_);
    result.SortCanonical();
    return result;
  });
}

std::size_t DeltaMiner::candidates_admitted_since(
    std::uint64_t generation) const {
  MutexLock lock(write_mu_);
  std::size_t n = 0;
  // ufim-lint: allow(unordered-iteration) order-independent count
  for (const auto& [is, admitted] : pool_) {
    static_cast<void>(is);
    if (admitted >= generation) ++n;
  }
  return n;
}

Result<std::unique_ptr<DeltaMiner>> MakeDeltaMiner(
    std::string_view algorithm, const ExpectedSupportParams& params,
    const MinerOptions& options, CompactionPolicy policy) {
  const MinerEntry* entry = MinerRegistry::Global().Find(algorithm);
  if (entry == nullptr) {
    return Status::NotFound("unknown algorithm '" + std::string(algorithm) +
                            "'");
  }
  if (entry->family != TaskFamily::kExpectedSupport) {
    return Status::InvalidArgument(
        "streaming mining supports expected-support algorithms only; '" +
        std::string(algorithm) + "' is not one");
  }
  return std::make_unique<DeltaMiner>(
      MinerRegistry::Global().Create(algorithm, options), params, policy);
}

}  // namespace ufim
