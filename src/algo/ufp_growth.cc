// UFP-growth (Leung, Mateo & Brajczuk, PAKDD'08; paper §3.1.2):
// FP-growth extended to uncertain data. Builds the UFP-tree, then
// recursively projects conditional subtrees per extension item.
//
// Because nodes are shared only on (item, probability) equality, the
// compression of the FP-tree largely evaporates under uncertainty: on
// Gaussian-probability data the global tree has one node per projected
// unit. The paper measures UFP-growth as the slowest and most
// memory-hungry of the three expected-support miners. This
// implementation keeps that sharing rule and node count exactly (exact
// mining over the weighted tree, no candidate-verification rescan), but
// stores each tree in two flat arrays — 32 B per node plus 8–16 B of
// child index — with no heap allocation per node (see `UFPTree`). The
// arrays are sized from the node count to expect: the global tree from
// the node/unit ratio of its first eighth, each conditional tree from
// its base's locally frequent units. Neither is sized from the raw
// unit count, which overshoots a shared tree many times.
//
// Mining is a ParallelFor over the top-level header ranks of the
// global tree (each rank's conditional projection chain is an
// independent subproblem). When more than one thread runs, a
// conditional tree of at least max(128, global_nodes / 32) nodes is
// mined by a nested ParallelFor over its own ranks. Outputs and
// counters are merged in fixed rank order at every level, so results
// are bit-identical at every `num_threads`.

#include <algorithm>
#include <iterator>

#include "algo/apriori_framework.h"
#include "algo/ufp_tree.h"
#include "common/thread_pool.h"
#include "core/miner_registry.h"

namespace ufim {

namespace {

/// A conditional tree this many nodes or larger, in a run with more
/// than one thread, is mined by a nested ParallelFor over its extension
/// ranks instead of the serial loop: at least kMinSplitNodes, and at
/// least 1/kSplitDivisor of the global tree. The node count is the
/// natural work proxy here: projection cost is linear in it, and it is
/// already computed when the decision is made. The floor keeps trivial
/// trees from paying the fork and prefix-copy overhead.
constexpr std::size_t kMinSplitNodes = 128;
constexpr std::size_t kSplitDivisor = 32;

/// Recursive mining context shared down the projection chain. Each rank
/// mined by MineTreeParallel gets its own copy with private `out` and
/// `counters` slots; only the immutable `rank_to_item` table and the
/// split settings are shared.
struct MineContext {
  double threshold = 0.0;
  const std::vector<ItemId>* rank_to_item = nullptr;
  std::vector<FrequentItemset>* out = nullptr;
  MiningCounters* counters = nullptr;
  std::size_t num_threads = 1;
  /// Conditional trees at least this large split; SIZE_MAX never does.
  std::size_t min_split_nodes = static_cast<std::size_t>(-1);
  const RunContext* run = nullptr;
};

FrequentItemset EmitResult(const MineContext& ctx,
                           const std::vector<std::uint32_t>& prefix_ranks,
                           double esup, double sq_sum) {
  std::vector<ItemId> ids;
  ids.reserve(prefix_ranks.size());
  for (std::uint32_t r : prefix_ranks) ids.push_back((*ctx.rank_to_item)[r]);
  FrequentItemset fi;
  fi.itemset = Itemset(std::move(ids));
  fi.expected_support = esup;
  fi.variance = esup - sq_sum;
  return fi;
}

void MineTree(const UFPTree& tree, std::vector<std::uint32_t>& prefix_ranks,
              const MineContext& ctx);
void MineTreeParallel(const UFPTree& tree,
                      const std::vector<std::uint32_t>& prefix_ranks,
                      const MineContext& ctx);

/// Mines one extension rank of `tree`: emits the grown pattern if
/// frequent, builds the conditional pattern base and tree, and recurses.
/// Self-contained per (tree, rank) — the unit of parallelism of
/// MineTreeParallel.
void MineRank(const UFPTree& tree, std::uint32_t rank,
              std::vector<std::uint32_t>& prefix_ranks,
              const MineContext& ctx) {
  // Checkpoint at entry: local scratch is still clean here, so the
  // unwind leaves nothing half-built (prefix_ranks push/pop below is
  // bracketed — a throw between them only abandons a task-local vector).
  PollRunContext(ctx.run);
  const std::vector<std::uint32_t>& header = tree.header(rank);
  if (header.empty()) return;
  ++ctx.counters->candidates_generated;

  double esup = 0.0, sq_sum = 0.0;
  for (std::uint32_t n : header) {
    const UFPTree::Node& node = tree.nodes()[n];
    esup += node.w_sum * node.prob;
    sq_sum += node.w2_sum * node.prob * node.prob;
  }
  if (esup < ctx.threshold) return;

  prefix_ranks.push_back(rank);
  ctx.out->push_back(EmitResult(ctx, prefix_ranks, esup, sq_sum));

  // Conditional pattern base of `rank`: ancestor paths with carried
  // aggregates (w, w2) scaled by this node's probability. Paths live
  // concatenated in one arena (`base_units`) — one allocation per base,
  // not one per header node.
  struct BaseEntry {
    std::uint32_t begin;  ///< [begin, end) into base_units
    std::uint32_t end;
    double w;
    double w2;
  };
  std::vector<BaseEntry> base;
  base.reserve(header.size());
  std::vector<UFPTree::PathUnit> base_units;
  std::vector<double> cond_esup(tree.num_ranks(), 0.0);
  std::vector<UFPTree::PathUnit> path;
  for (std::uint32_t n : header) {
    const UFPTree::Node& node = tree.nodes()[n];
    tree.AncestorPathInto(n, path);
    if (path.empty()) continue;
    BaseEntry entry;
    entry.begin = static_cast<std::uint32_t>(base_units.size());
    base_units.insert(base_units.end(), path.begin(), path.end());
    entry.end = static_cast<std::uint32_t>(base_units.size());
    entry.w = node.w_sum * node.prob;
    entry.w2 = node.w2_sum * node.prob * node.prob;
    for (const UFPTree::PathUnit& u : path) {
      cond_esup[u.rank] += entry.w * u.prob;
    }
    base.push_back(entry);
  }

  // Keep only locally frequent ancestor ranks, then build and recurse
  // into the conditional tree.
  bool any_frequent = false;
  for (std::uint32_t r = 0; r < tree.num_ranks(); ++r) {
    if (cond_esup[r] >= ctx.threshold) {
      any_frequent = true;
      break;
    }
  }
  if (any_frequent) {
    // Each kept unit adds at most one node; on unshared data, exactly one.
    std::size_t kept_units = 0;
    for (const UFPTree::PathUnit& u : base_units) {
      kept_units += cond_esup[u.rank] >= ctx.threshold ? 1 : 0;
    }
    UFPTree cond(tree.num_ranks(), kept_units);
    std::vector<UFPTree::PathUnit> filtered;
    for (const BaseEntry& entry : base) {
      filtered.clear();
      for (std::uint32_t i = entry.begin; i != entry.end; ++i) {
        const UFPTree::PathUnit& u = base_units[i];
        if (cond_esup[u.rank] >= ctx.threshold) filtered.push_back(u);
      }
      if (!filtered.empty()) cond.InsertPath(filtered, entry.w, entry.w2);
    }
    // A dominant conditional tree is worth the fork overhead; small ones
    // are mined inline.
    if (cond.num_nodes() >= ctx.min_split_nodes) {
      MineTreeParallel(cond, prefix_ranks, ctx);
    } else {
      MineTree(cond, prefix_ranks, ctx);
    }
  }
  prefix_ranks.pop_back();
}

/// Mines one (conditional) UFP-tree. `prefix_ranks` is the suffix pattern
/// this tree is conditioned on.
void MineTree(const UFPTree& tree, std::vector<std::uint32_t>& prefix_ranks,
              const MineContext& ctx) {
  // Iterate extension ranks from least to most frequent (classic
  // FP-growth order; any order is correct).
  for (std::uint32_t rank = static_cast<std::uint32_t>(tree.num_ranks());
       rank-- > 0;) {
    MineRank(tree, rank, prefix_ranks, ctx);
  }
}

/// Parallel MineTree: one ParallelFor index per extension rank of
/// `tree` (a rank's conditional tree may split again). Each rank works
/// against `tree` read-only — the caller blocks in ParallelFor, so no
/// copy is needed — with its own prefix copy and output/counter slots,
/// which are then merged in the serial descending-rank order. Per-rank
/// floating-point work is exactly the serial MineRank's, so results and
/// counters stay bit-identical to MineTree at every thread count.
void MineTreeParallel(const UFPTree& tree,
                      const std::vector<std::uint32_t>& prefix_ranks,
                      const MineContext& ctx) {
  const std::size_t n_ranks = tree.num_ranks();
  std::vector<std::vector<FrequentItemset>> rank_out(n_ranks);
  std::vector<MiningCounters> rank_counters(n_ranks);
  ParallelFor(
      n_ranks, ctx.num_threads,
      [&](std::size_t rank, std::size_t /*worker*/) {
        std::vector<std::uint32_t> prefix = prefix_ranks;
        MineContext child = ctx;
        child.out = &rank_out[rank];
        child.counters = &rank_counters[rank];
        MineRank(tree, static_cast<std::uint32_t>(rank), prefix, child);
      },
      ctx.run);
  for (std::size_t rank = n_ranks; rank-- > 0;) {
    *ctx.counters += rank_counters[rank];
    ctx.out->insert(ctx.out->end(),
                    std::make_move_iterator(rank_out[rank].begin()),
                    std::make_move_iterator(rank_out[rank].end()));
  }
}

Result<MiningResult> MineUFPGrowth(const FlatView& view,
                                   const ExpectedSupportParams& params,
                                   const MinerOptions& options) {
  PollRunContext(&options.run_context);  // checkpoint: run entry
  const double threshold =
      params.min_esup * static_cast<double>(view.num_transactions());
  MiningResult result;
  ++result.counters().database_scans;

  // Pass 1: frequent items, ordered by descending expected support
  // (straight off the view's cached per-item moments).
  std::vector<ItemStats> stats = CollectItemStats(view);
  std::vector<ItemStats> kept;
  for (const ItemStats& is : stats) {
    ++result.counters().candidates_generated;
    if (is.esup >= threshold) kept.push_back(is);
  }
  std::sort(kept.begin(), kept.end(), [](const ItemStats& a, const ItemStats& b) {
    if (a.esup != b.esup) return a.esup > b.esup;
    return a.item < b.item;
  });
  std::vector<ItemId> rank_to_item;
  rank_to_item.reserve(kept.size());
  // 1-itemset results are emitted by MineRank from the global tree
  // (whose per-rank moments equal the item-level moments exactly).
  for (const ItemStats& is : kept) rank_to_item.push_back(is.item);

  // Pass 2: build the global UFP-tree over the frequent items from the
  // view's vertical rank projection — reads only the kept items'
  // posting arrays, and rows arrive rank-sorted, so insertion needs no
  // per-transaction filter or sort.
  //
  // Sizing: each unit adds at most one node, but a shared tree has far
  // fewer nodes than units, so the tree is sized from its first eighth
  // instead. The node/unit ratio there, scaled to every unit, reserves
  // one node per unit when nothing is shared (continuous probabilities)
  // and little when almost everything is.
  ++result.counters().database_scans;
  const FlatView::RankProjection projection =
      view.ProjectOntoRanks(rank_to_item);
  const std::size_t num_units = projection.units.size();
  UFPTree tree(rank_to_item.size());
  bool sized = false;
  std::vector<UFPTree::PathUnit> path;
  for (std::size_t t = 0; t + 1 < projection.txn_offsets.size(); ++t) {
    const std::uint32_t end = projection.txn_offsets[t + 1];
    std::uint32_t u = projection.txn_offsets[t];
    if (u == end) continue;
    path.clear();
    for (; u < end; ++u) {
      path.push_back(
          UFPTree::PathUnit{projection.units[u].rank, projection.units[u].prob});
    }
    tree.InsertPath(path, 1.0, 1.0);
    if (!sized && 8 * std::size_t{end} >= num_units) {
      sized = true;
      tree.Reserve(tree.num_nodes() * num_units / end);
    }
  }

  // Recursive projection, task-parallel over the top-level header ranks
  // of the (now frozen, read-only) global tree. Each rank's conditional
  // subproblem is independent; per-rank subtree costs are wildly skewed,
  // so ranks are claimed dynamically — and a dominant rank's conditional
  // tree splits into a nested loop over its own ranks, so one whale
  // subtree does not serialize on one worker.
  const std::size_t threads =
      options.num_threads == 0 ? HardwareThreads() : options.num_threads;
  std::vector<FrequentItemset> found;
  MineContext ctx;
  ctx.threshold = threshold;
  ctx.rank_to_item = &rank_to_item;
  ctx.out = &found;
  ctx.counters = &result.counters();
  ctx.num_threads = threads;
  if (threads > 1) {
    ctx.min_split_nodes =
        std::max(kMinSplitNodes, tree.num_nodes() / kSplitDivisor);
  }
  ctx.run = &options.run_context;
  MineTreeParallel(tree, {}, ctx);
  for (FrequentItemset& fi : found) result.Add(std::move(fi));
  result.SortCanonical();
  return result;
}

}  // namespace

UFIM_REGISTER_MINER("UFP-growth", /*exact=*/true, /*production=*/true,
                    MineUFPGrowth)

}  // namespace ufim
