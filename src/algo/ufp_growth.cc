#include "algo/ufp_growth.h"

#include <algorithm>
#include <memory>

#include "algo/apriori_framework.h"
#include "algo/ufp_tree.h"
#include "common/thread_pool.h"
#include "core/miner_registry.h"

namespace ufim {

namespace {

/// Split policy for recursive task decomposition, shared (read-only)
/// across all mining tasks of one MineExpected call. Null policy (or
/// `min_split_nodes` past any real tree) means "never split".
struct SplitPolicy {
  /// Participation cap for each nested TaskGroup (resolved, >= 2).
  std::size_t max_workers = 0;
  /// A conditional tree this many nodes or larger is mined by spawning
  /// one child task per extension rank instead of the serial loop. The
  /// node count is the natural work proxy here: projection cost is
  /// linear in it, and it is already computed when the decision is made.
  std::size_t min_split_nodes = 0;
};

/// Recursive mining context shared down the projection chain. In the
/// parallel driver each top-level rank task owns its own context
/// (private `out` and `counters` slots); only the immutable
/// `rank_to_item` table and the split policy are shared.
struct MineContext {
  double threshold = 0.0;
  const std::vector<ItemId>* rank_to_item = nullptr;
  std::vector<FrequentItemset>* out = nullptr;
  MiningCounters* counters = nullptr;
  const SplitPolicy* split = nullptr;
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
/// Self-contained per (tree, rank) — the unit of parallelism at the top
/// level, where `tree` is the shared read-only global tree.
void MineRank(const UFPTree& tree, std::uint32_t rank,
              std::vector<std::uint32_t>& prefix_ranks,
              const MineContext& ctx) {
  // Checkpoint at entry: local scratch is still clean here, so the
  // unwind leaves nothing half-built (prefix_ranks push/pop below is
  // bracketed — a throw between them only abandons a task-local vector).
  PollRunContext(ctx.run);
  const std::vector<std::uint32_t>& header = tree.header(rank);
  if (header.empty()) return;
  if (ctx.counters != nullptr) ++ctx.counters->candidates_generated;

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
    // Work-budget heuristic: a dominant conditional tree is worth the
    // task-spawn overhead; small ones are mined inline.
    if (ctx.split != nullptr && cond.num_nodes() >= ctx.split->min_split_nodes) {
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

/// Parallel MineTree: one child task per extension rank of `tree`,
/// spawned into a nested TaskGroup (children may split again). Each
/// child works against the parent's conditional tree read-only — the
/// parent blocks in Wait, so no copy is needed — with its own prefix
/// copy and pre-indexed output/counter slots; the parent then merges in
/// the serial descending-rank order. Per-rank floating-point work is
/// exactly the serial MineRank's, so results and counters stay
/// bit-identical to MineTree at every thread count and split budget.
void MineTreeParallel(const UFPTree& tree,
                      const std::vector<std::uint32_t>& prefix_ranks,
                      const MineContext& ctx) {
  const std::size_t n_ranks = tree.num_ranks();
  std::vector<std::vector<FrequentItemset>> child_out(n_ranks);
  std::vector<MiningCounters> child_counters(n_ranks);
  TaskGroup group(ctx.split->max_workers, ctx.run);
  for (std::uint32_t rank = static_cast<std::uint32_t>(n_ranks); rank-- > 0;) {
    group.Spawn([&tree, &prefix_ranks, &ctx, &child_out, &child_counters,
                 rank] {
      std::vector<std::uint32_t> prefix = prefix_ranks;
      MineContext child = ctx;
      child.out = &child_out[rank];
      child.counters = &child_counters[rank];
      MineRank(tree, rank, prefix, child);
    });
  }
  group.Wait();
  // Wait's error rethrow covers tasks that started; the poll covers
  // tasks the tripped token made the group skip entirely.
  PollRunContext(ctx.run);
  for (std::uint32_t rank = static_cast<std::uint32_t>(n_ranks); rank-- > 0;) {
    if (ctx.counters != nullptr) *ctx.counters += child_counters[rank];
    ctx.out->insert(ctx.out->end(),
                    std::make_move_iterator(child_out[rank].begin()),
                    std::make_move_iterator(child_out[rank].end()));
  }
}

}  // namespace

Result<MiningResult> UFPGrowth::MineExpected(
    const FlatView& view, const ExpectedSupportParams& params) const {
  UFIM_RETURN_IF_ERROR(params.Validate());
  PollRunContext(&run_context());  // checkpoint: run entry
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
  // so tasks are claimed dynamically — and a dominant rank's conditional
  // tree splits recursively into child tasks under the split-budget
  // heuristic, so one whale subtree no longer serializes on one worker.
  // Every task writes only its own output/counter slots, and the
  // per-rank arithmetic is exactly the serial MineTree iteration's, so
  // results and counters are bit-identical at every thread count and
  // split budget.
  const std::size_t threads =
      num_threads_ == 0 ? HardwareThreads() : num_threads_;
  SplitPolicy policy;
  SplitPolicy* split = nullptr;
  if (threads > 1 && split_budget_ != 1) {
    // Budget semantics: 0 = auto (divisor 32, floored so trivial trees
    // never pay the spawn + prefix-copy overhead), 1 = off, B > 1 =
    // split exactly when a conditional tree holds >= global_nodes / B
    // nodes (an explicit budget is a request for that aggressiveness,
    // so no floor).
    constexpr std::size_t kMinSplitNodesFloor = 128;
    policy.max_workers = threads;
    policy.min_split_nodes =
        split_budget_ == 0
            ? std::max(kMinSplitNodesFloor, tree.num_nodes() / 32)
            : std::max<std::size_t>(1, tree.num_nodes() / split_budget_);
    split = &policy;
  }
  const std::size_t n_ranks = rank_to_item.size();
  std::vector<std::vector<FrequentItemset>> per_rank(n_ranks);
  std::vector<MiningCounters> per_rank_counters(n_ranks);
  ParallelFor(
      n_ranks, num_threads_,
      [&](std::size_t rank, std::size_t /*worker*/) {
        std::vector<std::uint32_t> prefix;
        MineContext ctx;
        ctx.threshold = threshold;
        ctx.rank_to_item = &rank_to_item;
        ctx.out = &per_rank[rank];
        ctx.counters = &per_rank_counters[rank];
        ctx.split = split;
        ctx.run = &run_context();
        MineRank(tree, static_cast<std::uint32_t>(rank), prefix, ctx);
      },
      &run_context());
  // Merge in fixed descending-rank order — the serial MineTree order —
  // regardless of which worker mined which rank.
  for (std::uint32_t rank = static_cast<std::uint32_t>(n_ranks); rank-- > 0;) {
    result.counters() += per_rank_counters[rank];
    for (FrequentItemset& fi : per_rank[rank]) result.Add(std::move(fi));
  }
  result.SortCanonical();
  return result;
}

UFIM_REGISTER_MINER("UFP-growth", TaskFamily::kExpectedSupport,
                    /*production=*/true,
                    [](const MinerOptions& options) {
                      return std::make_unique<UFPGrowth>(options.num_threads,
                                                         options.split_budget);
                    })

}  // namespace ufim
