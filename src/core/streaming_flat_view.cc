#include "core/streaming_flat_view.h"

#include <cassert>
#include <utility>

namespace ufim {

StreamingFlatView::StreamingFlatView(CompactionPolicy policy)
    : StreamingFlatView(UncertainDatabase(), policy) {}

StreamingFlatView::StreamingFlatView(const UncertainDatabase& db,
                                     CompactionPolicy policy)
    : storage_(std::make_shared<FlatView::Storage>()), policy_(policy) {
  FlatView::BuildStorage(db, *storage_);
  storage_->delta_tids.resize(storage_->num_items);
  storage_->delta_probs.resize(storage_->num_items);
}

void StreamingFlatView::BeginAppend() {
  assert(!txn_.has_value() && "append transaction already open");
  const FlatView::Storage& s = *storage_;
  AppendTxn txn;
  txn.full_size = s.full_size;
  txn.num_items = s.num_items;
  txn.delta_units = s.delta_units;
  txn_ = std::move(txn);
}

void StreamingFlatView::SnapshotForTxn(ItemId item) {
  const FlatView::Storage& s = *storage_;
  // Tids assigned inside the transaction are >= the transaction's
  // starting full_size, and per-item delta tids strictly ascend — so the
  // tail tid tells in O(1) whether this item was already dirtied (and
  // snapshotted) by this transaction.
  const std::vector<TransactionId>& tids = s.delta_tids[item];
  if (!tids.empty() &&
      static_cast<std::size_t>(tids.back()) >= txn_->full_size) {
    return;
  }
  AppendTxn::ItemSnapshot snap;
  snap.item = item;
  snap.delta_len = tids.size();
  snap.esup_acc = s.item_esup_acc[item];
  snap.esup = s.item_esup[item];
  snap.sq_sum = s.item_sq_sum[item];
  txn_->items.push_back(std::move(snap));
}

bool StreamingFlatView::CommitAppend() {
  assert(txn_.has_value() && "no open append transaction");
  txn_.reset();
  // Deferred policy check, same rule as a bare Append's tail.
  return MaybeCompact();
}

void StreamingFlatView::RollbackAppend() {
  assert(txn_.has_value() && "no open append transaction");
  FlatView::Storage& s = *storage_;
  const AppendTxn& txn = *txn_;
  // Per-item posting tails and moment cells first; items created inside
  // the transaction are truncated away by the universe shrink below, so
  // writing their cells here is harmless.
  for (const AppendTxn::ItemSnapshot& snap : txn.items) {
    s.delta_tids[snap.item].resize(snap.delta_len);
    s.delta_probs[snap.item].resize(snap.delta_len);
    s.item_esup_acc[snap.item] = snap.esup_acc;
    s.item_esup[snap.item] = snap.esup;
    s.item_sq_sum[snap.item] = snap.sq_sum;
  }
  if (s.num_items != txn.num_items) {
    s.num_items = txn.num_items;
    s.delta_tids.resize(txn.num_items);
    s.delta_probs.resize(txn.num_items);
    s.item_esup.resize(txn.num_items);
    s.item_sq_sum.resize(txn.num_items);
    s.item_esup_acc.resize(txn.num_items);
  }
  s.delta_units = txn.delta_units;
  s.full_size = txn.full_size;
  // A rollback is a mutation like any other: views handed out during
  // the transaction (or before it) must not keep reading, even though
  // the restored bits happen to match the pre-transaction state.
  s.generation.fetch_add(1, std::memory_order_relaxed);
  txn_.reset();
}

bool StreamingFlatView::Append(std::span<const Transaction> batch) {
  FlatView::Storage& s = *storage_;
  for (const Transaction& t : batch) {
    const TransactionId tid = static_cast<TransactionId>(s.full_size);
    for (const ProbItem& u : t) {
      if (u.item >= s.num_items) {
        // Previously-unseen item: grow the item-indexed arrays. The base
        // CSR stays as built (the new item simply has no base segment).
        s.num_items = static_cast<std::size_t>(u.item) + 1;
        s.delta_tids.resize(s.num_items);
        s.delta_probs.resize(s.num_items);
        s.item_esup.resize(s.num_items, 0.0);
        s.item_sq_sum.resize(s.num_items, 0.0);
        s.item_esup_acc.resize(s.num_items, KahanSum());
      }
      if (txn_.has_value()) SnapshotForTxn(u.item);
      ++s.delta_units;
      s.delta_tids[u.item].push_back(tid);
      s.delta_probs[u.item].push_back(u.prob);
      // Per-item unit order is tid-major here exactly as in a
      // from-scratch build, so continuing the persistent accumulators
      // reproduces the rebuild's moment bits at every point.
      s.item_esup_acc[u.item].Add(u.prob);
      s.item_esup[u.item] = s.item_esup_acc[u.item].value();
      s.item_sq_sum[u.item] += u.prob * u.prob;
    }
    ++s.full_size;
  }
  // Mark the mutation before the policy check so a triggered compaction
  // advances the generation sequence monotonically (append g -> g+1,
  // compact retires at g+2 and publishes fresh storage at g+2).
  if (!batch.empty()) {
    s.generation.fetch_add(1, std::memory_order_relaxed);
  }
  // Inside an append transaction the compaction is deferred to
  // CommitAppend: folding uncommitted rows into the base would make them
  // unrecoverable on rollback.
  if (txn_.has_value()) return false;
  return MaybeCompact();
}

bool StreamingFlatView::MaybeCompact() {
  const FlatView::Storage& s = *storage_;
  if (!policy_.ShouldCompact(s.base->posting_tids.size(), s.delta_units,
                             delta_transactions())) {
    return false;
  }
  Compact();
  return true;
}

void StreamingFlatView::Compact() {
  assert(!txn_.has_value() && "cannot compact inside an append transaction");
  const FlatView::Storage& s = *storage_;
  if (s.full_size == s.base_size) return;

  // Copy-on-compact: the merged base is built into *fresh* storage and
  // published by swapping storage_; the retired generation's arrays are
  // never touched, so snapshot handles that still share them (or hold a
  // frozen copy of the delta) keep reading valid, immutable data.
  const FlatView::Storage::BaseArrays& ob = *s.base;
  FlatView::Storage::BaseArrays merged;

  // Per item, the merged posting list is base postings then
  // delta postings — already globally tid-sorted, so the merge is a
  // counting pass plus contiguous copies (same layout a from-scratch
  // build would produce).
  const std::size_t base_items = s.base_num_items();
  std::vector<std::size_t> offsets(s.num_items + 1, 0);
  for (std::size_t i = 0; i < s.num_items; ++i) {
    const std::size_t base_len =
        i < base_items ? ob.item_offsets[i + 1] - ob.item_offsets[i] : 0;
    offsets[i + 1] = offsets[i] + base_len + s.delta_tids[i].size();
  }
  std::vector<TransactionId> tids(offsets.back());
  std::vector<double> probs(offsets.back());
  for (std::size_t i = 0; i < s.num_items; ++i) {
    std::size_t pos = offsets[i];
    if (i < base_items) {
      const std::size_t lo = ob.item_offsets[i];
      const std::size_t len = ob.item_offsets[i + 1] - lo;
      std::copy_n(ob.posting_tids.begin() + lo, len, tids.begin() + pos);
      std::copy_n(ob.posting_probs.begin() + lo, len, probs.begin() + pos);
      pos += len;
    }
    std::copy(s.delta_tids[i].begin(), s.delta_tids[i].end(),
              tids.begin() + pos);
    std::copy(s.delta_probs[i].begin(), s.delta_probs[i].end(),
              probs.begin() + pos);
  }
  merged.item_offsets = std::move(offsets);
  merged.posting_tids = std::move(tids);
  merged.posting_probs = std::move(probs);

  // Fresh storage: merged base, empty delta. Moments carry over — the
  // accumulators describe the logical content, which did not change.
  auto fresh = std::make_shared<FlatView::Storage>();
  fresh->num_items = s.num_items;
  fresh->full_size = s.full_size;
  fresh->base_size = s.full_size;
  fresh->base =
      std::make_shared<const FlatView::Storage::BaseArrays>(std::move(merged));
  fresh->generation.store(s.generation.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
  fresh->delta_tids.resize(s.num_items);
  fresh->delta_probs.resize(s.num_items);
  fresh->item_esup = s.item_esup;
  fresh->item_sq_sum = s.item_sq_sum;
  fresh->item_esup_acc = s.item_esup_acc;

  // Retire the old generation (outstanding live views on it become
  // stale; snapshots hold distinct frozen storage and are unaffected),
  // then publish the fresh one.
  storage_->generation.fetch_add(1, std::memory_order_relaxed);
  storage_ = std::move(fresh);
  ++compactions_;
}

StreamingSnapshot StreamingFlatView::Snapshot() const {
  assert(!txn_.has_value() && "cannot snapshot inside an append transaction");
  const FlatView::Storage& s = *storage_;
  // Freeze: share the immutable compacted base, deep-copy the delta and
  // moment arrays. O(delta + num_items), bounded by the compaction
  // policy — never O(total units).
  auto frozen = std::make_shared<FlatView::Storage>();
  frozen->num_items = s.num_items;
  frozen->full_size = s.full_size;
  frozen->base_size = s.base_size;
  frozen->base = s.base;
  const std::uint64_t gen = s.generation.load(std::memory_order_relaxed);
  frozen->generation.store(gen, std::memory_order_relaxed);
  frozen->delta_units = s.delta_units;
  frozen->delta_tids = s.delta_tids;
  frozen->delta_probs = s.delta_probs;
  frozen->item_esup = s.item_esup;
  frozen->item_sq_sum = s.item_sq_sum;
  frozen->item_esup_acc = s.item_esup_acc;

  StreamingSnapshot snap;
  snap.generation_ = gen;
  snap.watermark_ = s.full_size;
  snap.view_ = FlatView(std::move(frozen), 0, s.full_size, gen);
  return snap;
}

}  // namespace ufim
