#ifndef UFIM_CORE_STREAMING_FLAT_VIEW_H_
#define UFIM_CORE_STREAMING_FLAT_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/thread_annotations.h"
#include "core/flat_view.h"
#include "core/uncertain_database.h"

namespace ufim {

/// When the streaming delta is merged into the columnar base.
///
/// An append publishes a fresh delta (the old delta's postings plus the
/// batch's) in O(delta + batch units + num_items); reads pay one extra
/// segment per item until the delta is folded back into the contiguous
/// base by an O(total units) compaction. The policy bounds both costs:
/// a compaction triggers automatically in any `Append` that would leave
/// more than `max_delta_ratio` delta units per base unit (once at least
/// `min_delta_units` have accumulated, so tiny databases don't thrash).
struct CompactionPolicy {
  /// Delta/base unit ratio above which Append compacts (strictly
  /// greater triggers). Any value <= 0 — 0 is the idiomatic spelling —
  /// means "always contiguous": compact on every append that leaves
  /// anything in the delta (the "always rebuild" reference point of the
  /// differential harness and the streaming bench).
  double max_delta_ratio = 0.25;
  /// Appends never compact before this many delta units accumulate
  /// (ignored when max_delta_ratio <= 0: always-contiguous mode
  /// compacts regardless of the gate).
  std::size_t min_delta_units = 1024;

  /// True when the stream must compact: `delta_units` probabilistic
  /// units across `delta_txns` appended transactions over a base of
  /// `base_units`. In always-contiguous mode (max_delta_ratio <= 0) the
  /// decision keys on `delta_txns`, not units — a unit-less delta of
  /// only empty transactions still folds, so the rebuild reference
  /// really is the from-scratch layout.
  bool ShouldCompact(std::size_t base_units, std::size_t delta_units,
                     std::size_t delta_txns) const {
    if (max_delta_ratio <= 0.0) return delta_txns > 0;
    if (delta_units == 0 || delta_units < min_delta_units) return false;
    return static_cast<double>(delta_units) >
           max_delta_ratio * static_cast<double>(base_units);
  }
};

/// A self-contained snapshot of a `StreamingFlatView` at one
/// generation, produced by `StreamingFlatView::Snapshot()`.
///
/// `view()` is a full `FlatView` over the stream's contents as of the
/// snapshot. The stream never changes published storage, so the handle
/// just shares it: taking one is O(1), and it stays valid — and mines
/// bit-identically to mining that generation quiesced — across every
/// subsequent `Append`/`Compact` on the source, with no coordination.
/// Any number of threads may read one handle concurrently; handles are
/// cheap to copy and keep their storage alive independently of the
/// source view's lifetime.
class StreamingSnapshot {
 public:
  /// Empty snapshot (an empty stream at generation 0).
  StreamingSnapshot() = default;

  /// The full view. Free-threaded: its storage is never mutated.
  const FlatView& view() const { return view_; }

  /// The stream's generation when the snapshot was taken.
  std::uint64_t generation() const { return generation_; }

  /// Transactions in the stream when the snapshot was taken
  /// (== view().num_transactions(); the stream's watermark).
  std::size_t watermark() const { return view_.num_transactions(); }

 private:
  friend class StreamingFlatView;

  StreamingSnapshot(FlatView view, std::uint64_t generation)
      : view_(std::move(view)), generation_(generation) {}

  FlatView view_;
  std::uint64_t generation_ = 0;
};

/// Incrementally maintained columnar storage: the streaming counterpart
/// of building a `FlatView` per batch.
///
/// The stream holds one immutable storage — a contiguous base CSR, a
/// delta CSR of the transactions appended since the last compaction,
/// and the per-item moments — and changes only by publishing a fresh
/// one. `Append(batch)` takes a batch already built as its own
/// `FlatView`, assigns its transactions the next ids, and publishes
/// storage that shares the base and holds a new delta, old delta ++
/// batch — no O(total units) rebuild. Because appended tids are
/// strictly greater than every existing tid, each item's logical posting
/// list is its base segment followed by its delta segment, and every
/// `FlatView` accessor and join kernel walks that segment list
/// transparently (see `FlatView::PostingSegments`). `Compact()` merges
/// the delta into a fresh base; the policy above triggers it
/// automatically. Both use the same column merge.
///
/// **Equivalence contract.** At any point of the stream,
/// `Snapshot().view()` is *bit-identical* in mining behaviour to
/// `FlatView(db)` over the same transactions built from scratch:
/// posting contents, cached per-item moments (the Kahan accumulators
/// are continued across appends and carried through compactions, so
/// they equal a from-scratch accumulation), join batch boundaries, and
/// float evaluation order all match. The randomized streaming
/// differential harness (tests/testing/stream_harness.h) enforces this
/// across append/compact/mine schedules.
///
/// **Reading.** All reads go through `Snapshot()`: an O(1) handle on
/// the published storage, which no later `Append` or `Compact` touches.
/// A snapshot therefore stays valid, and bit-identical in mining
/// behaviour, through any number of subsequent appends and compactions.
///
/// **Single-writer contract (annotated).** At most one thread at a time
/// — the serialized writer — may call `Append` / `Compact` or take a
/// `Snapshot()` (taking one reads the storage pointer the writer
/// swaps). The contract covers *mutators and snapshot acquisition
/// only*: reading through a `StreamingSnapshot` handle needs no
/// coordination with the writer at all, which is what lets
/// long-running mines overlap ingestion. The contract is
/// machine-checked by the `-Wthread-safety` CI leg: each mutator
/// requires the `writer_role_` capability, which a caller claims via
/// `AssertSoleWriter()` exactly where its own serialization argument
/// holds (e.g. `DeltaMiner` claims it under its write mutex). A
/// mutation call path with no claim fails the build.
class StreamingFlatView {
 public:
  explicit StreamingFlatView(CompactionPolicy policy = {});

  /// Seeds the base with `db` (equivalent to appending its transactions
  /// to an empty view and compacting).
  explicit StreamingFlatView(const UncertainDatabase& db,
                             CompactionPolicy policy = {});

  std::size_t num_transactions() const { return storage_->full_size; }
  std::size_t num_items() const { return storage_->num_items; }
  std::size_t num_units() const { return storage_->num_units(); }

  /// Transactions currently in the delta region.
  std::size_t delta_transactions() const {
    return storage_->full_size - storage_->base_size;
  }
  std::size_t delta_units() const { return storage_->delta_units(); }
  bool has_delta() const { return delta_transactions() > 0; }

  /// Compactions run so far (automatic + explicit).
  std::size_t compactions() const { return compactions_; }

  /// Current generation: +1 for every Append of a non-empty batch and +1
  /// for every compaction (automatic or explicit). Monotonically
  /// increasing over the stream's life.
  std::uint64_t generation() const { return generation_; }

  const CompactionPolicy& policy() const { return policy_; }

  /// Appends the transactions of `batch` (typically
  /// `FlatView(transactions)`) as [num_transactions(),
  /// num_transactions() + batch.num_transactions()), growing the item
  /// universe to `batch.num_items()` when it is larger. The batch's
  /// postings follow the old delta's in a fresh delta, and copies of the
  /// cached moments are continued over them in tid order, so the stored
  /// bits are those of a from-scratch build over the same transactions.
  /// When the policy fires, base, delta and batch are merged straight
  /// into a fresh base instead. The new storage is published with one
  /// pointer swap at the end: an `Append` that throws (allocation
  /// failure) leaves the stream unchanged. `batch` may be any view,
  /// a snapshot of this stream included. O(delta + batch units +
  /// num_items), or O(total units) when it compacts. Returns true when
  /// the policy compacted.
  bool Append(FlatView batch) UFIM_REQUIRES(writer_role_);

  /// Merges the delta into a fresh contiguous base (O(total units));
  /// no-op without a delta. Mining results are unaffected — compaction
  /// changes the physical layout only.
  void Compact() UFIM_REQUIRES(writer_role_);

  /// Claims the writer role to the thread-safety analysis (no runtime
  /// effect). Call it at the point where the caller's own serialization
  /// argument makes it the sole writer — see the single-writer contract
  /// in the class comment.
  void AssertSoleWriter() const UFIM_ASSERT_CAPABILITY(writer_role_) {}

  /// A handle on the current contents (see `StreamingSnapshot`). O(1):
  /// it shares the published storage. Part of the writer protocol —
  /// acquisition reads the storage pointer a mutator swaps, so it is
  /// serialized with mutations; the returned handle itself is
  /// free-threaded.
  [[nodiscard]] StreamingSnapshot Snapshot() const
      UFIM_REQUIRES(writer_role_);

 private:
  /// Publishes fresh storage holding the current contents followed by
  /// `batch`'s: merged into one base when `compact`, else as the shared
  /// base plus a fresh delta.
  void Publish(const FlatView& batch, bool compact)
      UFIM_REQUIRES(writer_role_);

  std::shared_ptr<const FlatView::Storage> storage_;
  CompactionPolicy policy_;
  std::size_t compactions_ = 0;
  std::uint64_t generation_ = 0;

  /// The "I am the one serialized writer" capability (see class comment).
  Role writer_role_;
};

}  // namespace ufim

#endif  // UFIM_CORE_STREAMING_FLAT_VIEW_H_
