// Threshold-free mining: the k itemsets with the highest expected
// support. Practitioners rarely know a good min_esup up front (the
// paper's sweeps exist precisely because results are threshold-
// sensitive); top-k inverts the contract.
//
// Depth-first search with a dynamic bound: the k-th best expected
// support seen so far prunes subtrees, which is exact because expected
// support is anti-monotone. Items are explored in descending expected-
// support order so the bound tightens early. An extension's expected
// support never exceeds its item's, so each extension loop stops, before
// joining, at the first item whose own expected support cannot beat the
// bound: no later item can either. Serial: on the CLI dataset families
// the whole search takes well under a millisecond at k = 10.
//
// Returns fewer than k itemsets only when fewer exist. Results carry
// (esup, variance) like every other miner and are sorted by descending
// expected support. `counters().candidates_generated` counts the seed
// items plus the extensions actually joined; those cut off by the early
// stop are not counted. The run context is polled once per searched
// starting item and once per joined extension.

#include <algorithm>
#include <queue>

#include "algo/apriori_framework.h"
#include "common/math_util.h"
#include "core/miner_registry.h"

namespace ufim {

namespace {

/// Sparse containment of the current prefix (transaction ids implicit:
/// tids[i] holds probs[i]).
struct Containment {
  std::vector<TransactionId> tids;
  std::vector<double> probs;
};

struct HeapEntry {
  double esup;
  double sq_sum;
  Itemset itemset;
  // Min-heap on esup so top() is the current k-th best.
  friend bool operator>(const HeapEntry& a, const HeapEntry& b) {
    return a.esup > b.esup;
  }
};

using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

struct SearchContext {
  const FlatView* view = nullptr;
  const RunContext* run = nullptr;
  std::size_t k = 0;
  /// Items in descending expected-support order (exploration order).
  std::vector<ItemId> order;
  /// Expected support of `order[p]`, by order position p.
  std::vector<double> item_esup;
  MinHeap heap;
  MiningCounters counters;
  /// Shared by every extension join in the DFS: the batch kernel's
  /// buffers grow once and are reused down the whole search.
  JoinScratch scratch;
};

void Offer(SearchContext& ctx, Itemset itemset, double esup, double sq_sum) {
  if (ctx.heap.size() < ctx.k) {
    ctx.heap.push(HeapEntry{esup, sq_sum, std::move(itemset)});
  } else if (esup > ctx.heap.top().esup) {
    ctx.heap.pop();
    ctx.heap.push(HeapEntry{esup, sq_sum, std::move(itemset)});
  }
}

double Bound(const SearchContext& ctx) {
  return ctx.heap.size() < ctx.k ? -1.0 : ctx.heap.top().esup;
}

/// True when no itemset containing the item at order position `p` can
/// beat the bound. Such an itemset's esup sums, over a subset of the
/// item's postings, terms fl(a·b) with a <= 1, and each is <= the
/// posting's own b; both sums are KahanSums, whose relative error is far
/// below the 1e-12 slack. Positions run in descending item esup, so the
/// test then holds for every later position too, and the bound stays put
/// because nothing more is offered: callers `break`.
bool OutOfReach(const SearchContext& ctx, std::uint32_t p) {
  return ctx.item_esup[p] * (1.0 + 1e-12) <= Bound(ctx);
}

/// Extends `prefix` (whose containment is given) with the items at
/// order-positions greater than `last_pos`, in order, up to the first one
/// out of reach. Extension containments come from merge-joining the
/// prefix tids with the item's posting arrays.
void Dfs(SearchContext& ctx, const Itemset& prefix, const Containment& cont,
         std::uint32_t last_pos) {
  const FlatView& view = *ctx.view;
  for (std::uint32_t p = last_pos + 1; p < ctx.order.size(); ++p) {
    // Stop before paying for the join: neither this extension nor any
    // later one can qualify (see OutOfReach).
    if (OutOfReach(ctx, p)) break;
    // Checkpoint: one per joined DFS extension. The search is serial and
    // every container is owned by this call chain, so an abort here
    // unwinds cleanly.
    PollRunContext(ctx.run);
    const ItemId item = ctx.order[p];
    ++ctx.counters.candidates_generated;
    // Batch join: one vectorized intersection, then a gather over the
    // match columns.
    const FlatView::ListMatches matches =
        view.JoinWithPostings(cont.tids, item, ctx.scratch);
    // Itemsets that never co-occur are not results.
    if (matches.size() == 0) continue;
    KahanSum esup;
    double sq_sum = 0.0;
    for (std::size_t k = 0; k < matches.size(); ++k) {
      const double joint =
          cont.probs[matches.seq_indices[k]] * matches.probs[k];
      esup.Add(joint);
      sq_sum += joint * joint;
    }
    // Anti-monotonicity: nothing below this node can beat the bound.
    if (esup.value() <= Bound(ctx)) continue;
    // Only extensions that pass get their containment, copied out of the
    // scratch before the recursion below reuses it.
    Containment ext;
    ext.tids.resize(matches.size());
    ext.probs.resize(matches.size());
    for (std::size_t k = 0; k < matches.size(); ++k) {
      const std::size_t i = matches.seq_indices[k];
      ext.tids[k] = cont.tids[i];
      ext.probs[k] = cont.probs[i] * matches.probs[k];
    }
    Itemset extended = prefix.Union(item);
    Offer(ctx, extended, esup.value(), sq_sum);
    Dfs(ctx, extended, ext, p);
  }
}

Result<MiningResult> MineTopK(const FlatView& view, const TopKParams& params,
                              const MinerOptions& options) {
  SearchContext ctx;
  ctx.view = &view;
  ctx.run = &options.run_context;
  ctx.k = params.k;

  std::vector<ItemStats> stats = CollectItemStats(view);
  std::sort(stats.begin(), stats.end(), [](const ItemStats& a, const ItemStats& b) {
    if (a.esup != b.esup) return a.esup > b.esup;
    return a.item < b.item;
  });
  ctx.order.reserve(stats.size());
  ctx.item_esup.reserve(stats.size());
  for (const ItemStats& is : stats) {
    ctx.order.push_back(is.item);
    ctx.item_esup.push_back(is.esup);
  }

  // Seed the heap with the items themselves (tightens the bound before
  // any pair is evaluated), then run the guided DFS per starting item.
  for (const ItemStats& is : stats) {
    ++ctx.counters.candidates_generated;
    Offer(ctx, Itemset{is.item}, is.esup, is.sq_sum);
  }
  for (std::uint32_t p = 0; p < ctx.order.size(); ++p) {
    // No itemset starting here or at a later item can qualify.
    if (OutOfReach(ctx, p)) break;
    PollRunContext(ctx.run);  // checkpoint: one per searched starting item
    const ItemId item = ctx.order[p];
    Containment cont;
    view.CopyPostings(item, cont.tids, cont.probs);
    Dfs(ctx, Itemset{item}, cont, p);
  }

  // Drain the heap into descending order.
  std::vector<HeapEntry> ranked;
  while (!ctx.heap.empty()) {
    ranked.push_back(ctx.heap.top());
    ctx.heap.pop();
  }
  std::reverse(ranked.begin(), ranked.end());
  MiningResult result;
  result.counters() = ctx.counters;
  for (HeapEntry& e : ranked) {
    FrequentItemset fi;
    fi.itemset = std::move(e.itemset);
    fi.expected_support = e.esup;
    fi.variance = e.esup - e.sq_sum;
    result.Add(std::move(fi));
  }
  return result;
}

}  // namespace

UFIM_REGISTER_MINER("TopK", /*exact=*/true, /*production=*/true, MineTopK)

}  // namespace ufim
