#ifndef UFIM_CORE_STREAMING_FLAT_VIEW_H_
#define UFIM_CORE_STREAMING_FLAT_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/thread_annotations.h"
#include "core/flat_view.h"
#include "core/uncertain_database.h"

namespace ufim {

/// When the streaming delta is merged into the columnar base.
///
/// Appends land in the delta region in O(batch units); reads pay one
/// extra segment per item until the delta is folded back into the
/// contiguous base by an O(total units) compaction. The policy bounds
/// that read amortization: a compaction triggers automatically at the
/// end of any `Append` that leaves more than `max_delta_ratio` delta
/// units per base unit (once at least `min_delta_units` have
/// accumulated, so tiny databases don't thrash).
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

/// A frozen, self-contained snapshot of a `StreamingFlatView` at one
/// storage generation, produced by `StreamingFlatView::Snapshot()`.
///
/// `view()` is a full `FlatView` over the stream's contents as of the
/// snapshot: it stays valid — and mines bit-identically to mining that
/// generation quiesced — across every subsequent `Append`/`Compact` on
/// the source, with no coordination (the handle owns frozen storage
/// that shares the immutable compacted base and deep-copies only the
/// delta and moment arrays, so taking one is O(delta + num_items), not
/// O(total)). Any number of threads may read one handle concurrently;
/// handles are cheap to copy and keep their storage alive
/// independently of the source view's lifetime.
class StreamingSnapshot {
 public:
  /// Empty snapshot (an empty stream at generation 0).
  StreamingSnapshot() = default;

  /// The frozen full view. Free-threaded: never stale, never mutated.
  const FlatView& view() const { return view_; }

  /// Storage generation the snapshot captured.
  std::uint64_t generation() const { return generation_; }

  /// Transactions in the stream when the snapshot was taken
  /// (== view().num_transactions(); the stream's watermark).
  std::size_t watermark() const { return watermark_; }

 private:
  friend class StreamingFlatView;

  FlatView view_;
  std::uint64_t generation_ = 0;
  std::size_t watermark_ = 0;
};

/// Incrementally maintained columnar storage: the streaming counterpart
/// of building a `FlatView` per batch.
///
/// `Append(batch)` takes a batch already built as its own `FlatView`,
/// assigns its transactions the next ids and copies its postings,
/// column by column, into a per-item *delta* region (per-item posting
/// tail vectors) in O(batch units) — no O(total units) rebuild.
/// Because appended tids are strictly greater than every existing tid,
/// each item's logical posting list is its base segment followed by its
/// delta segment, and every `FlatView` accessor and join kernel walks
/// that segment list transparently (see
/// `FlatView::PostingSegments`). `Compact()` merges the delta back into
/// the contiguous base; the policy above triggers it automatically.
///
/// **Equivalence contract.** At any point of the stream, `View()` is
/// *bit-identical* in mining behaviour to `FlatView(db)` over the same
/// transactions built from scratch: posting contents, cached per-item
/// moments (the Kahan accumulators persist across appends and
/// compactions, so they equal a from-scratch accumulation), join batch
/// boundaries, and float evaluation order all match. The randomized
/// streaming differential harness (tests/testing/stream_harness.h)
/// enforces this across append/compact/mine schedules.
///
/// **View validity.** `View()` (and any slice or copy of it) reads the
/// *live* storage: `Append` and `Compact` invalidate every previously
/// obtained live view. That invalidation is no longer
/// silent — each mutation bumps the storage generation, and in
/// debug/sanitizer builds a stale view's next accessor aborts with a
/// clear message (see `FlatView`'s storage-generations section). Code
/// that must read *across* mutations takes a `Snapshot()` instead: the
/// returned handle freezes the current contents (sharing the immutable
/// compacted base, copying only the policy-bounded delta and moment
/// arrays) and stays valid — and bit-identical in mining behaviour —
/// through any number of subsequent appends and compactions.
/// `Compact` cooperates by *copy-on-compact*: it builds the merged base
/// into fresh storage and publishes that, leaving the retired
/// generation's arrays untouched for whoever still holds them.
///
/// **Single-writer contract (annotated).** At most one thread at a time
/// — the serialized writer — may call `Append` / `Compact` or take a
/// `Snapshot()`. The contract covers *mutators and snapshot
/// acquisition only*: reading through a `StreamingSnapshot` handle
/// needs no coordination with the writer at all (the handle's storage
/// is frozen), which is what lets long-running mines overlap ingestion.
/// Reading a live `View()` remains valid only until the next mutation.
/// The contract is machine-checked by the `-Wthread-safety` CI leg:
/// each mutator requires the `writer_role_` capability, which a caller
/// claims via `AssertSoleWriter()` exactly where its own serialization
/// argument holds (e.g. `DeltaMiner` claims it under its write mutex).
/// A mutation call path with no claim fails the build.
class StreamingFlatView {
 public:
  explicit StreamingFlatView(CompactionPolicy policy = {});

  /// Seeds the base with `db` (equivalent to appending its transactions
  /// to an empty view and compacting).
  explicit StreamingFlatView(const UncertainDatabase& db,
                             CompactionPolicy policy = {});

  std::size_t num_transactions() const { return storage_->full_size; }
  std::size_t num_items() const { return storage_->num_items; }
  std::size_t num_units() const {
    return storage_->base->posting_tids.size() + storage_->delta_units;
  }

  /// Transactions currently in the delta region.
  std::size_t delta_transactions() const {
    return storage_->full_size - storage_->base_size;
  }
  std::size_t delta_units() const { return storage_->delta_units; }
  bool has_delta() const { return delta_transactions() > 0; }

  /// Compactions run so far (automatic + explicit).
  std::size_t compactions() const { return compactions_; }

  /// Current storage generation: bumped by every mutation (Append of a
  /// non-empty batch, Compact — which also advances to freshly
  /// published storage). Monotonically increasing over the
  /// stream's life; views and snapshots taken at an older generation
  /// are stale / frozen respectively.
  std::uint64_t generation() const {
    return storage_->generation.load(std::memory_order_relaxed);
  }

  const CompactionPolicy& policy() const { return policy_; }

  /// Appends the transactions of `batch` (typically
  /// `FlatView(transactions)`) as [num_transactions(),
  /// num_transactions() + batch.num_transactions()), growing the item
  /// universe to `batch.num_items()` when it is larger. Each item's
  /// postings are copied as one column, and its cached moments are
  /// continued over them in tid order, so the stored bits are those of
  /// a from-scratch build over the same transactions. Every array is
  /// sized before anything is written: an `Append` that throws
  /// (allocation failure) leaves the stream's contents, universe and
  /// generation unchanged. `Append` drops its reference to the batch's
  /// arrays before any compaction the policy triggers (pass the view
  /// with `std::move` to free them there). `batch` must not read this
  /// stream's live storage (a `View()` of it); a `Snapshot()` view is
  /// fine. O(batch units) plus that compaction. Invalidates existing
  /// views (unless the batch has no transactions). Returns true when
  /// the policy compacted.
  bool Append(FlatView batch) UFIM_REQUIRES(writer_role_);

  /// Merges the delta into the contiguous base (O(total units)); no-op
  /// without a delta. Invalidates existing views. Mining results are
  /// unaffected — compaction changes the physical layout only.
  void Compact() UFIM_REQUIRES(writer_role_);

  /// Claims the writer role to the thread-safety analysis (no runtime
  /// effect). Call it at the point where the caller's own serialization
  /// argument makes it the sole writer with no outstanding readers —
  /// see the single-writer contract in the class comment.
  void AssertSoleWriter() const UFIM_ASSERT_CAPABILITY(writer_role_) {}

  /// Full *live* view over everything appended so far. Valid until the
  /// next Append/Compact; after that, any accessor on it
  /// aborts in debug/sanitizer builds (stale-view check). To read
  /// across mutations, take a Snapshot() instead.
  [[nodiscard]] FlatView View() const {
    return FlatView(storage_, 0, storage_->full_size,
                    storage_->generation.load(std::memory_order_relaxed));
  }

  /// Freezes the current contents into a self-contained handle (see
  /// `StreamingSnapshot`). O(delta + num_items): shares the immutable
  /// compacted base, deep-copies the delta region and moment arrays.
  /// Part of the writer protocol — snapshot *acquisition* observes the
  /// delta mid-construction if it raced a mutator, so it is serialized
  /// with mutations; the returned handle itself is free-threaded.
  [[nodiscard]] StreamingSnapshot Snapshot() const
      UFIM_REQUIRES(writer_role_);

 private:
  std::shared_ptr<FlatView::Storage> storage_;
  CompactionPolicy policy_;
  std::size_t compactions_ = 0;

  /// The "I am the one serialized writer" capability (see class comment).
  Role writer_role_;
};

}  // namespace ufim

#endif  // UFIM_CORE_STREAMING_FLAT_VIEW_H_
