#ifndef UFIM_CORE_FLAT_VIEW_H_
#define UFIM_CORE_FLAT_VIEW_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "common/math_util.h"
#include "core/itemset.h"
#include "core/simd_intersect.h"
#include "core/types.h"
#include "core/uncertain_database.h"

namespace ufim {

class FlatView;
class StreamingFlatView;

/// One contiguous run of an item's postings: parallel (tid, probability)
/// columns, ascending by tid. An item's postings within a view are a
/// short *list* of such segments — one for a fully compacted view, two
/// when a streaming delta tail is present (see FlatView below) — whose
/// concatenation is the item's tid-sorted posting list.
struct PostingSegment {
  const TransactionId* tids = nullptr;
  const double* probs = nullptr;
  std::size_t len = 0;
};

/// An item's postings within a view, as at most two non-empty segments
/// (base region first, then the streaming delta tail). The segments are
/// tid-partitioned: every tid of `seg[0]` precedes every tid of
/// `seg[1]`, so walking them in order yields the ascending posting list.
struct SegmentedPostings {
  PostingSegment seg[2];
  std::size_t count = 0;  ///< populated entries in seg, 0..2
  std::size_t total = 0;  ///< postings across the populated segments
};

/// Reusable scratch for the batch posting-join kernels: the member
/// segment cursors, the intersection index buffers, and the survivor
/// (tid, product) columns. One instance per worker; buffers grow to the
/// largest join seen and are reused, so the steady-state hot loop
/// allocates nothing (this is where the old per-call `cursors` vector
/// went).
class JoinScratch {
 public:
  JoinScratch() = default;

  // The scratch carries raw pointers into a FlatView between
  // BeginJoin/NextJoinBatch calls; copying mid-join would be a bug, and
  // workers each own one anyway.
  JoinScratch(const JoinScratch&) = delete;
  JoinScratch& operator=(const JoinScratch&) = delete;
  JoinScratch(JoinScratch&&) = default;
  JoinScratch& operator=(JoinScratch&&) = default;

 private:
  friend class FlatView;

  /// One side of the join: a logical posting list as its physical
  /// segments, with a consumption cursor (current segment + offset
  /// within it) advanced batch by batch.
  struct Side {
    SegmentedPostings postings;
    std::size_t cur = 0;  ///< current segment index
    std::size_t pos = 0;  ///< consumed prefix within segment `cur`
  };

  void EnsureCapacity(std::size_t n) {
    if (match_a_.size() < n) {
      match_a_.resize(n);
      match_b_.resize(n);
      tids_.resize(n);
      prods_.resize(n);
    }
  }

  // In-flight join state (set by FlatView::BeginJoin). The driver is
  // consumed by *logical* position (driver_pos_), not a per-segment
  // cursor: batches address its segments directly by offset.
  SegmentedPostings driver_postings_;
  std::size_t driver_len_ = 0;  ///< total driver postings, across segments
  std::size_t driver_pos_ = 0;  ///< consumed logical prefix
  std::vector<Side> members_;

  // Batch buffers: match positions from the intersect kernel plus the
  // survivor columns compacted in place as members fold in.
  std::vector<std::uint32_t> match_a_;
  std::vector<std::uint32_t> match_b_;
  std::vector<TransactionId> tids_;
  std::vector<double> prods_;
};

/// One batch of posting-join survivors: the transactions (within one
/// driver-posting batch) that contain the whole itemset, with their
/// containment products. Spans point into the scratch (or the view's
/// storage for single-item joins) and are valid until the next batch.
struct JoinBatch {
  std::span<const TransactionId> tids;  ///< matching transactions, ascending
  std::span<const double> prods;        ///< Pr(X ⊆ T), parallel to tids
  std::size_t driver_done = 0;  ///< driver postings consumed incl. this batch
  std::size_t driver_len = 0;   ///< total driver postings
};

/// Columnar index over an `UncertainDatabase`, built once and shared by
/// every miner.
///
/// One layout, vertical, in contiguous arrays: for each item, the
/// ascending CSR list of `(transaction, probability)` postings.
/// Candidate support counting is a tight merge-join of posting arrays
/// instead of a re-walk of `Transaction` objects — the locality argument
/// of the paper's §4 made structural. The consumers that read
/// transactions row by row (the UFP-tree and UH-Struct builders, the
/// Apriori pair pass) get their rows from `ProjectOntoRanks`, which
/// transposes only the frequent items' postings into rank-labelled rows.
///
/// Per-item expected supports and Σp² are cached at build time, so the
/// level-1 pass of every miner is O(num_items) array reads.
///
/// **Streaming delta.** A view built by `FlatView(db)` is fully
/// contiguous. A view obtained from a `StreamingFlatView` may carry a
/// *delta*: transactions appended after the last compaction live in a
/// second CSR of the same layout instead of the base arrays. Appended
/// tids are strictly greater than every base tid, so an item's logical
/// posting list is its base segment followed by its delta segment —
/// `PostingSegments` exposes exactly that, and every accessor and join
/// kernel walks the segment list transparently, with the *same* logical
/// batch boundaries and float evaluation order as a contiguous rebuild.
/// Results are therefore bit-identical whether the data was appended or
/// rebuilt from scratch (the streaming differential harness enforces
/// this).
///
/// **Immutable storage.** No storage is ever changed once a view can see
/// it. A streaming append or compaction builds fresh storage (sharing
/// whatever arrays it did not change) and publishes it with one pointer
/// swap, so every view — whenever and wherever it was obtained — keeps
/// reading the contents it was made over, and any number of threads may
/// read one view concurrently.
///
/// A view is cheap to copy: copies share the underlying arrays.
/// `Slice(lo, hi)` returns an O(1) view of a contiguous transaction
/// range — the access pattern of the scalability sweeps and of
/// per-shard parallel mining; vertical accessors of a sliced view locate
/// their cuts by binary search on the tid arrays. Slices may span the
/// base/delta seam.
///
/// Transaction ids are *global* throughout: posting arrays hold ids of
/// the source database, so ids agree across every slice of one database.
/// A view's transactions are `[begin_tid(), end_tid())`.
class FlatView {
 public:
  FlatView() : FlatView(std::span<const Transaction>()) {}

  /// Builds the postings in two passes over `txns`, which become
  /// transactions [0, txns.size()). The view does not keep a reference
  /// to `txns`; it owns its arrays. Its item universe is one past the
  /// largest item id in `txns`.
  explicit FlatView(std::span<const Transaction> txns);

  /// `FlatView(db.transactions())`, with the item universe `db` caches.
  explicit FlatView(const UncertainDatabase& db);

  std::size_t num_transactions() const { return end_ - begin_; }
  std::size_t num_items() const { return storage_->num_items; }
  bool empty() const { return begin_ == end_; }

  /// First transaction id in the view (inclusive).
  TransactionId begin_tid() const { return static_cast<TransactionId>(begin_); }
  /// One past the last transaction id in the view.
  TransactionId end_tid() const { return static_cast<TransactionId>(end_); }

  /// Total probabilistic units (postings) in the viewed transactions.
  /// O(1) on a full view; one `PostingCount` per item on a slice.
  std::size_t num_units() const;

  // --- Postings ----------------------------------------------------------

  /// `item`'s postings within this view as tid-partitioned segments
  /// (base region first, then the delta tail) — the general accessor
  /// that every posting consumer walks. Views without a delta (all
  /// views over `FlatView(db)` storage, and streaming views after a
  /// compaction) produce at most one segment. Items >= num_items() have
  /// no segments.
  SegmentedPostings PostingSegments(ItemId item) const;

  /// Total postings of `item` in this view, across segments.
  std::size_t PostingCount(ItemId item) const {
    return PostingSegments(item).total;
  }

  /// Copies `item`'s postings into caller-owned vectors — the seed
  /// containment of a single-item prefix in the DFS miners (brute force,
  /// top-k). Existing contents are replaced. Segment-aware.
  void CopyPostings(ItemId item, std::vector<TransactionId>& tids,
                    std::vector<double>& probs) const;

  /// Probability column only (the level-1 containment vector of the
  /// probabilistic apriori loop). Appends to `probs` in tid order,
  /// segment-aware, keeping the seam-walk knowledge inside the view.
  void AppendPostingProbs(ItemId item, std::vector<double>& probs) const;

  // --- Cached item moments ----------------------------------------------

  /// Σ_t Pr(item ∈ T_t) over the viewed transactions. O(1) on a full
  /// view; O(slice length) on a slice.
  double ItemExpectedSupport(ItemId item) const;

  /// Σ_t Pr(item ∈ T_t)² likewise.
  double ItemSquaredSum(ItemId item) const;

  // --- Itemset queries (merge-joins over postings) -----------------------

  /// Expected support of `itemset` by posting-list join (Definition 1).
  double ExpectedSupport(const Itemset& itemset) const;

  /// Nonzero containment probabilities Pr(X ⊆ T), ascending transaction
  /// order — identical contents to
  /// `UncertainDatabase::ContainmentProbabilities`.
  std::vector<double> ContainmentProbabilities(const Itemset& itemset) const;

  /// Driver postings per join batch. A pure function of nothing — a
  /// constant — so the batch boundaries (and with them any
  /// between-batch pruning schedule a consumer builds on top) are
  /// identical at every thread count and under every intersect kernel.
  static constexpr std::size_t kJoinBatchTids = 1024;

  /// Index into `itemset.items()` of the member a join over this view
  /// drives from: the shortest posting list by *logical* length, the
  /// first such member on ties. Results depend on it through the product
  /// order (the driver's probability comes first, then the other
  /// members' in item order), so it must stay stable and must not see
  /// the physical segmentation. The one definition of the rule;
  /// `JoinPostingsBatched` uses it unless told a driver. 0 for an empty
  /// itemset.
  std::size_t JoinDriver(const Itemset& itemset) const;

  /// `JoinPostingsBatched`'s default: drive from `JoinDriver(itemset)`.
  static constexpr std::size_t kShortestDriver = ~std::size_t{0};

  /// The shared posting merge-join kernel, batch form. Drives from the
  /// `JoinDriver` member's posting list, `kJoinBatchTids` *logical*
  /// postings at a time (a batch may straddle the base/delta seam — the batch
  /// boundaries depend only on the driver length, never on the physical
  /// layout); per batch it (1) intersects the driver tids against each
  /// remaining member's segments through `IntersectIndices` (galloping /
  /// SIMD per the runtime dispatch), compacting the survivor list, and
  /// (2) folds member probabilities into the running products in fixed
  /// member order — so the float evaluation order, and with it every
  /// result bit, is independent of the kernel that ran the set logic and
  /// of whether the postings are contiguous or segmented.
  ///
  /// `sink(const JoinBatch&)` is called once per batch (matches in
  /// ascending tid order across batches) and returns false to abandon
  /// the join — the optimistic-bound hook for decremental pruning: each
  /// unseen driver posting contributes at most 1 to expected support.
  ///
  /// `driver` (an index into `itemset.items()`) overrides the driver
  /// choice. Joining a slice `Slice(lo, n)` on the full view's
  /// `JoinDriver` yields the full-view join's products for tids >= lo,
  /// bit for bit — the incremental recount continues a candidate's
  /// moments that way.
  ///
  /// Every posting-join consumer (candidate evaluation, containment
  /// queries, the sharded/streaming recounts, the brute-force and top-k
  /// searches) routes through this or `JoinWithPostings` so join
  /// semantics can never diverge per miner.
  template <typename BatchSink>
  void JoinPostingsBatched(const Itemset& itemset, JoinScratch& scratch,
                           BatchSink&& sink,
                           std::size_t driver = kShortestDriver) const {
    if (!BeginJoin(itemset, driver, scratch)) return;
    JoinBatch batch;
    while (NextJoinBatch(scratch, batch)) {
      if (!sink(batch)) return;
    }
  }

  /// Matches of the list×postings join variant. Spans point into the
  /// scratch and are valid until its next use.
  struct ListMatches {
    std::span<const std::uint32_t> seq_indices;  ///< positions in seq_tids
    std::span<const double> probs;               ///< item's probability per match
    std::size_t size() const { return probs.size(); }
  };

  /// The list×postings variant of the kernel: intersects an ascending
  /// tid sequence (typically a prefix itemset's containment) with
  /// `item`'s posting segments in one vectorized pass per segment and
  /// gathers the matching posting probabilities.
  ListMatches JoinWithPostings(std::span<const TransactionId> seq_tids,
                               ItemId item, JoinScratch& scratch) const;

  // --- Rank projection (pattern-growth builders) -------------------------

  /// One unit of a rank-projected transaction.
  struct RankUnit {
    std::uint32_t rank = 0;
    double prob = 0.0;
  };

  /// CSR of the viewed transactions projected onto a frequent-item
  /// ranking: row t (view-relative) holds transaction begin_tid()+t's
  /// kept units, re-labelled by rank and ascending by rank. Rows of
  /// transactions with no kept item are empty.
  struct RankProjection {
    std::vector<std::uint32_t> txn_offsets;  ///< size num_transactions()+1
    std::vector<RankUnit> units;
  };

  /// Projects the view onto `rank_to_item` (rank r ↦ rank_to_item[r]).
  /// Built vertically — a counting pass plus a fill pass over the kept
  /// items' posting segments in rank order — so it reads only the kept
  /// units and each row comes out rank-sorted with no per-row sort. The
  /// UFP-tree and UH-Struct builders and the Apriori pair pass read
  /// their rows from here.
  RankProjection ProjectOntoRanks(std::span<const ItemId> rank_to_item) const;

  // --- Slicing -----------------------------------------------------------

  /// View over transactions [lo, hi) *of this view* (offsets are
  /// view-relative, so slices compose; the resulting view still reports
  /// global transaction ids). O(1): shares all arrays with this view.
  /// `lo` and `hi` are clamped to [0, num_transactions()] and to each
  /// other (hi < lo yields an empty view at lo).
  [[nodiscard]] FlatView Slice(std::size_t lo, std::size_t hi) const;

  /// True when the view spans the whole database it was built from.
  bool IsFullView() const {
    return begin_ == 0 && end_ == storage_->full_size;
  }

 private:
  friend class StreamingFlatView;

  /// Item-major CSR over one run of consecutive transactions: the
  /// postings of item i are [item_offsets[i], item_offsets[i+1]) of the
  /// two columns, ascending by global tid. Covers items
  /// [0, num_items()); items past that have no postings in the run.
  struct Csr {
    std::vector<std::size_t> item_offsets;
    std::vector<TransactionId> posting_tids;
    std::vector<double> posting_probs;

    std::size_t num_items() const {
      return item_offsets.empty() ? 0 : item_offsets.size() - 1;
    }

    /// Appends to `out` the postings of `item` in this run, which holds
    /// tids [run_lo, run_hi), cut to the viewed tids [begin, end) — by
    /// binary search only on a side where the view cuts into the run.
    void AppendSegment(ItemId item, std::size_t run_lo, std::size_t run_hi,
                       std::size_t begin, std::size_t end,
                       SegmentedPostings& out) const;
  };

  /// Everything a view reads, immutable once published: the streaming
  /// writer builds fresh storage for each change and shares the arrays
  /// that did not change (see `StreamingFlatView`).
  struct Storage {
    std::size_t num_items = 0;  ///< one past the largest item id (base+delta)
    std::size_t full_size = 0;  ///< transactions in the source database
    std::size_t base_size = 0;  ///< transactions in the contiguous base

    /// Transactions [0, base_size). Never null.
    std::shared_ptr<const Csr> base;
    /// Streaming delta: transactions [base_size, full_size), appended
    /// since the last compaction. Null when there are none.
    std::shared_ptr<const Csr> delta;

    // Full-database per-item moments. The Kahan accumulators are the
    // running state (streaming appends continue copies of them, so the
    // cached value is bit-identical to a from-scratch rebuild's
    // accumulation); item_esup holds their values for branch-free reads.
    std::vector<double> item_esup;
    std::vector<double> item_sq_sum;
    std::vector<KahanSum> item_esup_acc;

    std::size_t delta_units() const {
      return delta == nullptr ? 0 : delta->posting_tids.size();
    }
    std::size_t num_units() const {
      return base->posting_tids.size() + delta_units();
    }
  };

  FlatView(std::shared_ptr<const Storage> storage, std::size_t begin,
           std::size_t end)
      : storage_(std::move(storage)), begin_(begin), end_(end) {}

  /// Both public constructors: `num_items` is one past `txns`' largest
  /// item id.
  FlatView(std::span<const Transaction> txns, std::size_t num_items);

  /// The contiguous (no-delta) columnar image of `txns`, over items
  /// [0, num_items).
  static std::shared_ptr<const Storage> BuildStorage(
      std::span<const Transaction> txns, std::size_t num_items);

  /// The one merge of posting columns: a CSR over items [0, num_items)
  /// that lists, per item, each part's postings in part order. The
  /// (non-empty) parts are consecutive runs of transactions: the first
  /// keeps its tids, and each later part is renumbered to follow the one
  /// before it.
  static std::shared_ptr<const Csr> MergeColumns(
      std::initializer_list<FlatView> parts, std::size_t num_items);

  /// Folds one member side into the survivor columns (see flat_view.cc).
  static std::size_t FoldMember(const TransactionId* src_t,
                                const double* src_p, std::size_t n,
                                const JoinScratch::Side& m, TransactionId* st,
                                double* sp, std::uint32_t* ma,
                                std::uint32_t* mb);

  /// Advances a side's segment cursor past postings with tid <= last_tid.
  static void AdvanceSide(JoinScratch::Side& m, TransactionId last_tid);

  /// Sets up `scratch` for a batched join of `itemset` driven from
  /// member `driver` (`kShortestDriver`: `JoinDriver`), with the member
  /// segment cursors. False when the join is trivially empty.
  bool BeginJoin(const Itemset& itemset, std::size_t driver,
                 JoinScratch& scratch) const;

  /// Runs one driver batch of a join started by `BeginJoin`: intersect
  /// against each member's segments, fold probabilities, advance member
  /// cursors. False when the driver is exhausted.
  bool NextJoinBatch(JoinScratch& scratch, JoinBatch& batch) const;

  std::shared_ptr<const Storage> storage_;
  std::size_t begin_ = 0;  ///< first viewed transaction (global id)
  std::size_t end_ = 0;    ///< one past the last viewed transaction
};

}  // namespace ufim

#endif  // UFIM_CORE_FLAT_VIEW_H_
