#ifndef UFIM_ALGO_UFP_TREE_H_
#define UFIM_ALGO_UFP_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ufim {

/// The UFP-tree of Leung et al. (PAKDD'08; paper §3.1.2).
///
/// Like an FP-tree, but under uncertainty two transactions may share a
/// node only when both the item *and* its appearance probability are
/// equal, bit for bit (paper, Fig. 1 discussion). With continuous
/// probability assignments almost nothing is shared (QUEST T25I15, 4,000
/// transactions, Gaussian probabilities, min_esup 0.01: 121,134 nodes
/// for 121,134 units), so the tree is as large as the projected
/// database. That is the structural behaviour behind the paper's finding
/// that UFP-growth is slow and memory-hungry, and it is kept on purpose.
///
/// Storage is two flat arrays per tree, not one allocation per node:
///   - `nodes_`: 32 B per node (rank, parent, prob, w_sum, w2_sum);
///   - one open-addressing child index: a power-of-two array of 4-byte
///     node ids, probed linearly and kept at most half full, so 8–16 B
///     per node. Its key (parent, rank, probability bits) is read back
///     from `nodes_`, never stored twice.
/// The constructor's `capacity_hint` and `Reserve` size both arrays for
/// an expected node count. Too small a count only costs regrowth, too
/// large a one only memory; neither changes the tree. The inserted unit
/// count bounds the node count, but under heavy sharing it overshoots
/// it many times (a chain database of 74,250 units builds 161 nodes),
/// so a caller should pass what it knows to be close.
///
/// Nodes carry aggregated path weights rather than raw counts so that
/// conditional trees stay *exact* (no upper-bound candidates + rescan):
///   w_sum  = Σ over grouped transactions of Pr(prefix-so-far ⊆ T)
///   w2_sum = Σ of the squares (for variance tracking).
/// For the global tree, prefix-so-far is empty: w_sum = transaction
/// count, w2_sum likewise. Node ids are assigned in creation order and
/// each header lists its nodes in that order.
///
/// Thread safety: the tree is build-then-read. `InsertPath` requires
/// exclusive access; once construction is done, every const member
/// (`nodes`, `header`, `AncestorPathInto`, ...) only reads immutable
/// state — there are no lazy caches — so any number of threads may mine
/// a fully built tree concurrently. The parallel pattern-growth driver
/// leans on this: per-rank tasks share the global tree read-only and
/// build their conditional trees task-locally.
class UFPTree {
 public:
  struct Node {
    std::uint32_t rank = 0;    ///< item rank in descending-esup order
    std::uint32_t parent = 0;  ///< node index; 0 is the root sentinel
    double prob = 0.0;         ///< appearance probability at this node
    double w_sum = 0.0;
    double w2_sum = 0.0;
  };
  static_assert(sizeof(Node) == 32);

  /// One (rank, probability) step of an insertion path.
  struct PathUnit {
    std::uint32_t rank;
    double prob;
  };

  /// Creates an empty tree over `num_ranks` item ranks, with room for
  /// `capacity_hint` nodes before any array grows.
  explicit UFPTree(std::size_t num_ranks, std::size_t capacity_hint = 0);

  /// Makes room for `nodes` nodes in all (root excluded), so neither
  /// array grows before the tree holds that many. May be called during
  /// a build; it never changes the tree.
  void Reserve(std::size_t nodes);

  /// Inserts `path` (sorted by ascending rank) carrying aggregate weight
  /// `w` and squared weight `w2`. Every node along the path accumulates
  /// both. Empty paths are ignored.
  void InsertPath(const std::vector<PathUnit>& path, double w, double w2);

  /// Node arena; index 0 is the root sentinel.
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Header list: indices of all nodes labelled with `rank`.
  const std::vector<std::uint32_t>& header(std::uint32_t rank) const {
    return headers_[rank];
  }

  std::size_t num_ranks() const { return headers_.size(); }

  /// Total node count excluding the root (a memory-pressure proxy used
  /// by tests to verify the limited-sharing property).
  std::size_t num_nodes() const { return nodes_.size() - 1; }

  /// Clears `out` and fills it with the ancestor path of `node`
  /// (excluding the node itself and the root), root-first, i.e.
  /// ascending rank. The mining inner loop reuses one buffer per task.
  void AncestorPathInto(std::uint32_t node, std::vector<PathUnit>& out) const;

 private:
  /// Returns the index slot that holds the child (rank, prob) of
  /// `parent`, or the empty slot where it belongs.
  std::size_t FindSlot(std::uint32_t parent, std::uint32_t rank,
                       double prob) const;
  /// Replaces the child index by one of `slots` slots (a power of two)
  /// and re-files every node into it.
  void ResizeIndex(std::size_t slots);

  std::vector<Node> nodes_;
  /// Child index: node ids, 0 = empty (the root is nobody's child).
  std::vector<std::uint32_t> index_;
  std::vector<std::vector<std::uint32_t>> headers_;
};

}  // namespace ufim

#endif  // UFIM_ALGO_UFP_TREE_H_
