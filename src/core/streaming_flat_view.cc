#include "core/streaming_flat_view.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

namespace ufim {

StreamingFlatView::StreamingFlatView(CompactionPolicy policy)
    : StreamingFlatView(UncertainDatabase(), policy) {}

StreamingFlatView::StreamingFlatView(const UncertainDatabase& db,
                                     CompactionPolicy policy)
    : storage_(std::make_shared<FlatView::Storage>()), policy_(policy) {
  FlatView::BuildStorage(db.transactions(), db.num_items(), *storage_);
  storage_->delta_tids.resize(storage_->num_items);
  storage_->delta_probs.resize(storage_->num_items);
}

bool StreamingFlatView::Append(FlatView batch) {
  if (batch.empty()) return false;
  FlatView::Storage& s = *storage_;
  const std::size_t num_items = std::max(s.num_items, batch.num_items());

  // Size every array before writing anything, so an allocation failure
  // leaves the stream as it was (the item-indexed arrays may have grown
  // past num_items, by empty entries no reader looks at). Each item's
  // delta grows to a power of two: the capacity push_back's doubling
  // reaches.
  s.item_esup.resize(num_items, 0.0);
  s.item_sq_sum.resize(num_items, 0.0);
  s.item_esup_acc.resize(num_items, KahanSum());
  s.delta_tids.resize(num_items);
  s.delta_probs.resize(num_items);
  const auto grow = [](auto& column, std::size_t need) {
    if (column.capacity() < need) column.reserve(std::bit_ceil(need));
  };
  std::size_t units = 0;
  for (std::size_t i = 0; i < batch.num_items(); ++i) {
    const std::size_t n = batch.PostingCount(static_cast<ItemId>(i));
    grow(s.delta_tids[i], s.delta_tids[i].size() + n);
    grow(s.delta_probs[i], s.delta_probs[i].size() + n);
    units += n;
  }

  // Copy column by column. Within an item the batch's postings are in
  // tid order, the order a from-scratch build adds them in, so
  // continuing the persistent accumulators reproduces its moment bits.
  const std::size_t first = batch.begin_tid();
  for (std::size_t i = 0; i < batch.num_items(); ++i) {
    const SegmentedPostings p = batch.PostingSegments(static_cast<ItemId>(i));
    if (p.total == 0) continue;
    std::vector<TransactionId>& tids = s.delta_tids[i];
    std::vector<double>& probs = s.delta_probs[i];
    KahanSum& esup = s.item_esup_acc[i];
    double& sq_sum = s.item_sq_sum[i];
    for (std::size_t si = 0; si < p.count; ++si) {
      const PostingSegment& seg = p.seg[si];
      for (std::size_t k = 0; k < seg.len; ++k) {
        const double prob = seg.probs[k];
        tids.push_back(
            static_cast<TransactionId>(s.full_size + (seg.tids[k] - first)));
        probs.push_back(prob);
        esup.Add(prob);
        sq_sum += prob * prob;
      }
    }
    s.item_esup[i] = esup.value();
  }
  s.num_items = num_items;
  s.delta_units += units;
  s.full_size += batch.num_transactions();
  // Mark the mutation before the policy check so a triggered compaction
  // advances the generation sequence monotonically (append g -> g+1,
  // compact retires at g+2 and publishes fresh storage at g+2).
  s.generation.fetch_add(1, std::memory_order_relaxed);

  // Drop this reference to the batch's arrays before a compaction builds
  // the merged base, so the two need not coexist. `batch` is not read
  // again.
  batch.storage_.reset();
  if (!policy_.ShouldCompact(s.base->posting_tids.size(), s.delta_units,
                             delta_transactions())) {
    return false;
  }
  Compact();
  return true;
}

void StreamingFlatView::Compact() {
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
