#include "core/sharded_miner.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "common/math_util.h"
#include "common/thread_pool.h"

namespace ufim {

void RecountExpectedCandidates(const FlatView& view,
                               const std::vector<Itemset>& singles,
                               const std::vector<Itemset>& larger,
                               double threshold, std::size_t num_threads,
                               MiningResult& result,
                               const RunContext* context,
                               std::vector<RecountState>* carried) {
  PollRunContext(context);  // checkpoint: recount phase entry
  ++result.counters().database_scans;
  result.counters().candidates_generated += singles.size() + larger.size();

  for (const Itemset& s : singles) {
    const ItemId item = s.items().front();
    const double esup = view.ItemExpectedSupport(item);
    if (esup >= threshold) {
      FrequentItemset fi;
      fi.itemset = s;
      fi.expected_support = esup;
      fi.variance = esup - view.ItemSquaredSum(item);
      result.Add(std::move(fi));
    }
  }

  // Each candidate's carried state, if any: both lists are sorted.
  std::vector<RecountState*> prev(larger.size(), nullptr);
  if (carried != nullptr) {
    auto it = carried->begin();
    for (std::size_t c = 0; c < larger.size(); ++c) {
      while (it != carried->end() && it->itemset < larger[c]) ++it;
      if (it != carried->end() && it->itemset == larger[c]) prev[c] = &*it;
    }
  }

  const std::size_t n_txn = view.num_transactions();
  std::vector<RecountState> next(larger.size());
  std::vector<JoinScratch> scratches(
      ParallelWorkerCount(larger.size(), num_threads));
  ParallelFor(
      larger.size(), num_threads,
      [&](std::size_t c, std::size_t worker) {
        PollRunContext(context);  // checkpoint: one per recounted candidate
        const std::size_t driver = view.JoinDriver(larger[c]);
        KahanSum esup;
        double sq_sum = 0.0;
        std::size_t from = 0;
        // Continue the carried terms only if they were multiplied in
        // this driver's order; a pair's two orders agree (a*b == b*a).
        const RecountState* p = prev[c];
        if (p != nullptr && (p->driver == driver || larger[c].size() == 2)) {
          esup = p->esup;
          sq_sum = p->sq_sum;
          from = p->upto;
        }
        view.Slice(from, n_txn).JoinPostingsBatched(
            larger[c], scratches[worker],
            [&](const JoinBatch& b) {
              for (const double prod : b.prods) {
                esup.Add(prod);
                sq_sum += prod * prod;
              }
              return true;
            },
            driver);
        RecountState& state = next[c];
        state.esup = esup;
        state.sq_sum = sq_sum;
        state.upto = n_txn;
        state.driver = driver;
      },
      context);
  for (std::size_t c = 0; c < larger.size(); ++c) {
    const double esup = next[c].esup.value();
    if (esup >= threshold) {
      FrequentItemset fi;
      fi.itemset = larger[c];
      fi.expected_support = esup;
      fi.variance = esup - next[c].sq_sum;
      result.Add(std::move(fi));
    }
  }

  // Commit: only a completed recount replaces the carried states.
  if (carried != nullptr) {
    for (std::size_t c = 0; c < larger.size(); ++c) {
      next[c].itemset =
          prev[c] != nullptr ? std::move(prev[c]->itemset) : larger[c];
    }
    *carried = std::move(next);
  }
}

ShardedMiner::ShardedMiner(std::unique_ptr<Miner> inner,
                           std::size_t num_shards)
    : inner_(std::move(inner)),
      name_("Sharded(" + std::string(inner_->name()) + ")"),
      num_shards_(std::max<std::size_t>(num_shards, 1)) {}

bool ShardedMiner::Supports(const MiningTask& task) const {
  // Only expected support is additive across shards; see class comment.
  return std::holds_alternative<ExpectedSupportParams>(task) &&
         inner_->Supports(task);
}

Result<MiningResult> ShardedMiner::Mine(const FlatView& view,
                                        const MiningTask& task) const {
  const auto* params = std::get_if<ExpectedSupportParams>(&task);
  if (params == nullptr || !inner_->Supports(task)) {
    return Status::InvalidArgument(
        name_ + " supports expected-support tasks of its inner miner only");
  }
  UFIM_RETURN_IF_ERROR(params->Validate());

  const std::size_t n_txn = view.num_transactions();
  const std::size_t shards = std::min(num_shards_, std::max<std::size_t>(n_txn, 1));
  if (shards <= 1) return inner_->Mine(view, task);

  // The driver polls at phase boundaries and inside the recount; the
  // guard converts those throws (and the context-carrying ParallelFor's
  // final poll) into a clean Status at this facade.
  const RunContext& context = options().run_context;
  const std::size_t num_threads = options().num_threads;
  return internal::GuardMine([&]() -> Result<MiningResult> {
    PollRunContext(&context);  // checkpoint: shard phase entry

    // Phase 1: mine every shard independently at the same min_esup ratio.
    // Shard boundaries are a pure function of (n_txn, shards), so the
    // candidate union — and with it the final answer — is reproducible.
    std::vector<Result<MiningResult>> local;
    local.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      local.push_back(Status::Internal("shard not mined"));
    }
    ParallelFor(
        shards, num_threads,
        [&](std::size_t s, std::size_t /*worker*/) {
          const FlatView shard =
              view.Slice(s * n_txn / shards, (s + 1) * n_txn / shards);
          local[s] = inner_->Mine(shard, task);
        },
        &context);

    MiningResult result;
    std::unordered_set<Itemset, ItemsetHash> seen;
    std::vector<Itemset> singles;
    std::vector<Itemset> larger;
    for (std::size_t s = 0; s < shards; ++s) {
      UFIM_RETURN_IF_ERROR(local[s].status());
      // Counters aggregate the work done across all shards plus the merge
      // pass below — the uniform work measures stay meaningful.
      result.counters() += local[s]->counters();
      for (const FrequentItemset& fi : local[s]->itemsets()) {
        if (seen.insert(fi.itemset).second) {
          (fi.itemset.size() == 1 ? singles : larger).push_back(fi.itemset);
        }
      }
    }
    // Canonical candidate order keeps the recount (and any strategy the
    // kernels pick) independent of shard completion order.
    std::sort(singles.begin(), singles.end());
    std::sort(larger.begin(), larger.end());

    // Phase 2: exact recount of the union over the full view.
    const double threshold = params->min_esup * static_cast<double>(n_txn);
    RecountExpectedCandidates(view, singles, larger, threshold, num_threads,
                              result, &context);
    result.SortCanonical();
    return result;
  });
}

}  // namespace ufim
