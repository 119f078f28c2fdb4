#include "algo/uh_struct.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "algo/apriori_framework.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace ufim {

namespace {

/// A prefix whose head table holds this many occurrence entries, in a
/// run with more than one thread, mines its sibling extensions through a
/// nested ParallelFor: at least kMinSplitUnits, and at least
/// 1/kSplitDivisor of the projected units. The floor keeps shallow
/// subtrees from paying the fork and prefix-copy overhead.
constexpr std::size_t kMinSplitUnits = 256;
constexpr std::size_t kSplitDivisor = 32;

}  // namespace

/// Shared (per Mine call) state for splitting: the split threshold plus
/// a pool of Scratch instances for split-off extensions. Scratch is
/// expensive relative to a small subtree (three rank-sized arrays), so
/// each split-off extension leases a clean instance from the pool and
/// returns it instead of allocating its own; Recurse restores clean
/// state before returning, which is exactly the invariant the pool
/// needs.
struct UHStructEngine::MineState {
  std::size_t num_threads = 0;      ///< workers per nested ParallelFor
  std::size_t min_split_units = 0;  ///< head-table units to justify a split
  std::size_t num_ranks = 0;

  /// Guards the scratch free list — the only state split-off extensions
  /// share (each leased Scratch is thread-private while out).
  Mutex mu;
  std::vector<std::unique_ptr<Scratch>> pool UFIM_GUARDED_BY(mu);

  std::unique_ptr<Scratch> AcquireScratch() {
    {
      MutexLock lock(mu);
      if (!pool.empty()) {
        std::unique_ptr<Scratch> scratch = std::move(pool.back());
        pool.pop_back();
        return scratch;
      }
    }
    return std::make_unique<Scratch>(num_ranks);
  }

  void ReleaseScratch(std::unique_ptr<Scratch> scratch) {
    MutexLock lock(mu);
    pool.push_back(std::move(scratch));
  }
};

UHStructEngine::UHStructEngine(const FlatView& view, Hooks hooks)
    : hooks_(std::move(hooks)) {
  // Item-level pass: moments off the view's cached arrays, filter by the
  // predicate, order by descending expected support (the paper's
  // head-table order).
  std::vector<ItemStats> stats = CollectItemStats(view);
  std::vector<ItemStats> kept;
  kept.reserve(stats.size());
  for (const ItemStats& is : stats) {
    if (hooks_.is_frequent(is.esup, is.sq_sum)) kept.push_back(is);
  }
  std::sort(kept.begin(), kept.end(), [](const ItemStats& a, const ItemStats& b) {
    if (a.esup != b.esup) return a.esup > b.esup;
    return a.item < b.item;
  });
  rank_to_item_.reserve(kept.size());
  for (const ItemStats& is : kept) rank_to_item_.push_back(is.item);

  // Project transactions onto the kept items, re-labelled by rank and
  // ascending by rank (so "extensions after position" enumerates each
  // itemset exactly once). Built vertically off the kept items' posting
  // arrays — reads only the kept units and needs no per-row sort.
  // Transactions with no kept unit keep an empty row; they contribute
  // to no prefix and cost nothing to skip.
  FlatView::RankProjection projection = view.ProjectOntoRanks(rank_to_item_);
  txn_offsets_ = std::move(projection.txn_offsets);
  units_ = std::move(projection.units);
}

FrequentItemset UHStructEngine::MakeResult(
    const std::vector<std::uint32_t>& prefix_ranks, double esup,
    double sq_sum) const {
  std::vector<ItemId> ids;
  ids.reserve(prefix_ranks.size());
  for (std::uint32_t r : prefix_ranks) ids.push_back(rank_to_item_[r]);
  FrequentItemset fi;
  fi.itemset = Itemset(std::move(ids));
  fi.expected_support = esup;
  fi.variance = esup - sq_sum;
  if (hooks_.frequent_probability) {
    fi.frequent_probability = hooks_.frequent_probability(esup, sq_sum);
  }
  return fi;
}

std::vector<FrequentItemset> UHStructEngine::Mine(
    MiningCounters* counters, std::size_t num_threads,
    const RunContext* context) const {
  std::vector<FrequentItemset> out;
  if (counters != nullptr) ++counters->database_scans;

  // Level-1 results and the root occurrences (whole projected database).
  const std::size_t n_ranks = rank_to_item_.size();
  if (n_ranks == 0) return out;

  // Item-level moments per rank (recomputed from the projection — cheap
  // and keeps the engine self-contained).
  std::vector<std::pair<double, double>> item_moments(n_ranks, {0.0, 0.0});
  for (std::size_t t = 0; t + 1 < txn_offsets_.size(); ++t) {
    for (std::uint32_t u = txn_offsets_[t]; u < txn_offsets_[t + 1]; ++u) {
      item_moments[units_[u].rank].first += units_[u].prob;
      item_moments[units_[u].rank].second += units_[u].prob * units_[u].prob;
    }
  }

  // Root head table for every rank in one batched pass over the
  // projection (the old shape rescanned every transaction once per
  // rank — O(ranks × units)). A rank occurs at most once per
  // transaction, so each unit is the root occurrence of its own rank.
  // Kept as a CSR of unit *positions* (4 bytes per unit, vs a
  // materialized Occurrence table at 16) so the peak stays close to
  // the projection itself; each rank's occurrence list is expanded
  // just before its recursion and freed right after. Positions ascend
  // within a bucket, so every expanded list ascends by transaction.
  std::vector<std::uint32_t> root_offsets(n_ranks + 1, 0);
  for (const Unit& u : units_) ++root_offsets[u.rank + 1];
  for (std::size_t r = 0; r < n_ranks; ++r) root_offsets[r + 1] += root_offsets[r];
  std::vector<std::uint32_t> root_pos(units_.size());
  {
    std::vector<std::uint32_t> fill(root_offsets.begin(),
                                    root_offsets.end() - 1);
    for (std::uint32_t u = 0; u < units_.size(); ++u) {
      root_pos[fill[units_[u].rank]++] = u;
    }
  }
  // Row of unit `u`: the last row starting at or before it (empty rows
  // share offsets; upper_bound skips past the ties).
  auto txn_of = [this](std::uint32_t u) {
    return static_cast<std::uint32_t>(
        std::upper_bound(txn_offsets_.begin(), txn_offsets_.end(), u) -
        txn_offsets_.begin() - 1);
  };

  // For each frequent item (every rank, by construction), emit and grow —
  // one dynamically-claimed task per top-level rank (prefix subtree costs
  // are skewed, so no worker may wait behind a deep rank).
  // Tasks write only their own per-rank output/counter slots and carry
  // per-worker scratch; the merge below walks ascending rank — the
  // sequential loop's order — so results and counters are bit-identical
  // at every thread count.
  const std::size_t workers = ParallelWorkerCount(n_ranks, num_threads);
  std::vector<Scratch> scratch(workers, Scratch(n_ranks));
  std::vector<std::vector<FrequentItemset>> per_rank(n_ranks);
  std::vector<MiningCounters> per_rank_counters(n_ranks);
  const std::size_t threads =
      num_threads == 0 ? HardwareThreads() : num_threads;
  MineState state;
  MineState* split = nullptr;
  if (threads > 1) {
    state.num_threads = threads;
    state.min_split_units =
        std::max(kMinSplitUnits, units_.size() / kSplitDivisor);
    state.num_ranks = n_ranks;
    split = &state;
  }
  ParallelFor(
      n_ranks, num_threads, [&](std::size_t rank, std::size_t worker) {
        const std::uint32_t r = static_cast<std::uint32_t>(rank);
        std::vector<FrequentItemset>& rank_out = per_rank[r];
        MiningCounters& rank_counters = per_rank_counters[r];
        ++rank_counters.candidates_generated;
        std::vector<std::uint32_t> prefix(1, r);
        rank_out.push_back(
            MakeResult(prefix, item_moments[r].first, item_moments[r].second));
        std::vector<Occurrence> occurrences;
        occurrences.reserve(root_offsets[r + 1] - root_offsets[r]);
        for (std::uint32_t k = root_offsets[r]; k < root_offsets[r + 1]; ++k) {
          const std::uint32_t u = root_pos[k];
          occurrences.push_back(Occurrence{txn_of(u), u + 1, units_[u].prob});
        }
        Recurse(prefix, occurrences, scratch[worker], rank_out,
                &rank_counters, split, context);
      },
      context);
  for (std::size_t r = 0; r < n_ranks; ++r) {
    if (counters != nullptr) *counters += per_rank_counters[r];
    out.insert(out.end(), std::make_move_iterator(per_rank[r].begin()),
               std::make_move_iterator(per_rank[r].end()));
  }
  return out;
}

void UHStructEngine::Recurse(std::vector<std::uint32_t>& prefix_ranks,
                             const std::vector<Occurrence>& occurrences,
                             Scratch& scratch,
                             std::vector<FrequentItemset>& out,
                             MiningCounters* counters, MineState* state,
                             const RunContext* context) const {
  // Checkpoint: one per prefix subtree. Entry is a scratch-clean point
  // (the caller resets accumulators and restores the slot map before
  // every recursive call), so an abort here unwinds without leaving a
  // dirty Scratch behind for the pool.
  PollRunContext(context);
  // Pass 1: head-table moments for every extension rank.
  std::vector<std::uint32_t> touched;
  for (const Occurrence& occ : occurrences) {
    const std::uint32_t end = txn_offsets_[occ.txn + 1];
    for (std::uint32_t u = occ.next_start; u < end; ++u) {
      const std::uint32_t rank = units_[u].rank;
      const double p = occ.prob * units_[u].prob;
      if (scratch.esup_acc[rank] == 0.0 && scratch.sq_acc[rank] == 0.0) {
        touched.push_back(rank);
      }
      scratch.esup_acc[rank] += p;
      scratch.sq_acc[rank] += p * p;
    }
  }
  // Collect frequent extensions, then reset the scratch accumulators
  // before recursing (they are shared across levels of this task).
  struct Extension {
    std::uint32_t rank;
    double esup;
    double sq_sum;
    std::vector<Occurrence> occurrences;
  };
  std::vector<Extension> frequent;
  for (std::uint32_t rank : touched) {
    if (counters != nullptr) ++counters->candidates_generated;
    if (hooks_.is_frequent(scratch.esup_acc[rank], scratch.sq_acc[rank])) {
      frequent.push_back(
          Extension{rank, scratch.esup_acc[rank], scratch.sq_acc[rank], {}});
    }
    scratch.esup_acc[rank] = 0.0;
    scratch.sq_acc[rank] = 0.0;
  }
  if (frequent.empty()) return;
  std::sort(frequent.begin(), frequent.end(),
            [](const Extension& a, const Extension& b) { return a.rank < b.rank; });

  // Pass 2: one more walk builds the head-table occurrence lists for all
  // frequent extensions simultaneously (H-Mine's head table).
  // `scratch.slot_of` maps rank -> index into `frequent`, UINT32_MAX
  // elsewhere.
  for (std::size_t i = 0; i < frequent.size(); ++i) {
    scratch.slot_of[frequent[i].rank] = static_cast<std::uint32_t>(i);
  }
  for (const Occurrence& occ : occurrences) {
    const std::uint32_t end = txn_offsets_[occ.txn + 1];
    for (std::uint32_t u = occ.next_start; u < end; ++u) {
      const std::uint32_t slot = scratch.slot_of[units_[u].rank];
      if (slot == UINT32_MAX) continue;
      frequent[slot].occurrences.push_back(
          Occurrence{occ.txn, u + 1, occ.prob * units_[u].prob});
    }
  }
  for (const Extension& ext : frequent) scratch.slot_of[ext.rank] = UINT32_MAX;

  // A dominant head table (measured by its total occurrence-list size,
  // the cost driver of everything below) mines its sibling extensions
  // through a nested ParallelFor; small ones stay on the serial path.
  // Each extension emits into its own slot with its own prefix copy,
  // leased scratch and private counters, and the merge walks ascending
  // extension order — exactly the serial sibling loop's emission order
  // — so results and counters are bit-identical to the serial run at
  // every thread count.
  std::size_t head_units = 0;
  for (const Extension& ext : frequent) head_units += ext.occurrences.size();
  if (state != nullptr && frequent.size() > 1 &&
      head_units >= state->min_split_units) {
    const std::size_t n_ext = frequent.size();
    std::vector<std::vector<FrequentItemset>> ext_out(n_ext);
    std::vector<MiningCounters> ext_counters(n_ext);
    ParallelFor(
        n_ext, state->num_threads,
        [&](std::size_t e, std::size_t /*worker*/) {
          Extension& ext = frequent[e];
          std::vector<std::uint32_t> prefix = prefix_ranks;
          prefix.push_back(ext.rank);
          ext_out[e].push_back(MakeResult(prefix, ext.esup, ext.sq_sum));
          std::unique_ptr<Scratch> leased = state->AcquireScratch();
          Recurse(prefix, ext.occurrences, *leased, ext_out[e],
                  &ext_counters[e], state, context);
          state->ReleaseScratch(std::move(leased));
          ext.occurrences.clear();
          ext.occurrences.shrink_to_fit();
        },
        context);
    for (std::size_t e = 0; e < n_ext; ++e) {
      if (counters != nullptr) *counters += ext_counters[e];
      out.insert(out.end(), std::make_move_iterator(ext_out[e].begin()),
                 std::make_move_iterator(ext_out[e].end()));
    }
    return;
  }

  for (Extension& ext : frequent) {
    prefix_ranks.push_back(ext.rank);
    out.push_back(MakeResult(prefix_ranks, ext.esup, ext.sq_sum));
    Recurse(prefix_ranks, ext.occurrences, scratch, out, counters, state,
            context);
    // Release this branch's head table before moving to the next sibling
    // (H-Mine keeps memory proportional to the recursion path).
    ext.occurrences.clear();
    ext.occurrences.shrink_to_fit();
    prefix_ranks.pop_back();
  }
}

}  // namespace ufim
