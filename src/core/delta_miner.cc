#include "core/delta_miner.h"

#include <utility>
#include <vector>

#include "core/miner_registry.h"
#include "core/sharded_miner.h"

namespace ufim {

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
    if (!batch.empty()) {
      // Phase 1: mine the batch as its own SON shard, at the same
      // min_esup ratio (the shard threshold is ratio * |shard|, exactly
      // as ShardedMiner's static shards), before the stream is touched:
      // a failed shard mine returns with the stream as it was.
      FlatView shard(batch);
      Result<MiningResult> local = inner_->Mine(shard, task);
      UFIM_RETURN_IF_ERROR(local.status());
      result.counters() += local->counters();

      // Append, under the write mutex (serialized with any concurrent
      // explicit Compact). MineNext calls themselves are
      // caller-serialized; inside this block the thread is the stream's
      // sole writer, which is exactly the writer-role claim. The pool
      // admits the shard's itemsets first: should the append throw, the
      // pool only holds extra candidates and later recounts stay exact.
      MutexLock lock(write_mu_);
      view_.AssertSoleWriter();
      for (const FrequentItemset& fi : local->itemsets()) {
        pool_.insert(fi.itemset);
      }
      view_.Append(std::move(shard));
      ++shards_mined_;
    }
    {
      // Snapshot the stream and read the pool (in itemset order) for
      // phase 2. A recount failure then leaves a consistent stream that
      // an empty-batch call re-mines.
      MutexLock lock(write_mu_);
      view_.AssertSoleWriter();
      snap = view_.Snapshot();
      for (const Itemset& is : pool_) {
        (is.size() == 1 ? singles : larger).push_back(is);
      }
    }

    // Phase 2: exact recount of the whole candidate pool over the
    // snapshot, outside the write mutex — a concurrent explicit Compact
    // cannot perturb it (it publishes fresh storage and leaves the
    // snapshot's untouched), and the result is bit-identical either way.
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
