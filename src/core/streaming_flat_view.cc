#include "core/streaming_flat_view.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace ufim {

StreamingFlatView::StreamingFlatView(CompactionPolicy policy)
    : StreamingFlatView(UncertainDatabase(), policy) {}

StreamingFlatView::StreamingFlatView(const UncertainDatabase& db,
                                     CompactionPolicy policy)
    : storage_(FlatView::BuildStorage(db.transactions(), db.num_items())),
      policy_(policy) {}

bool StreamingFlatView::Append(FlatView batch) {
  if (batch.empty()) return false;
  const bool compact = policy_.ShouldCompact(
      storage_->base->posting_tids.size(), delta_units() + batch.num_units(),
      delta_transactions() + batch.num_transactions());
  Publish(batch, compact);
  ++generation_;
  if (compact) {
    ++generation_;
    ++compactions_;
  }
  return compact;
}

void StreamingFlatView::Compact() {
  if (!has_delta()) return;
  Publish(FlatView(), /*compact=*/true);
  ++generation_;
  ++compactions_;
}

void StreamingFlatView::Publish(const FlatView& batch, bool compact) {
  const FlatView::Storage& s = *storage_;
  auto next = std::make_shared<FlatView::Storage>();
  next->num_items = std::max(s.num_items, batch.num_items());
  next->full_size = s.full_size + batch.num_transactions();

  // Compacting merges base ++ delta ++ batch straight into a fresh base,
  // so no intermediate delta exists beside it; otherwise the base is
  // shared and the fresh delta is old delta ++ batch.
  if (compact) {
    next->base_size = next->full_size;
    next->base = FlatView::MergeColumns(
        {FlatView(storage_, 0, s.full_size), batch}, next->num_items);
  } else {
    next->base_size = s.base_size;
    next->base = s.base;
    next->delta = FlatView::MergeColumns(
        {FlatView(storage_, s.base_size, s.full_size), batch},
        next->num_items);
  }

  // Within an item the batch's postings are in tid order, the order a
  // from-scratch build adds them in, so continuing copies of the
  // accumulators reproduces its moment bits.
  next->item_esup = s.item_esup;
  next->item_sq_sum = s.item_sq_sum;
  next->item_esup_acc = s.item_esup_acc;
  next->item_esup.resize(next->num_items, 0.0);
  next->item_sq_sum.resize(next->num_items, 0.0);
  next->item_esup_acc.resize(next->num_items, KahanSum());
  for (std::size_t i = 0; i < batch.num_items(); ++i) {
    const SegmentedPostings p = batch.PostingSegments(static_cast<ItemId>(i));
    if (p.total == 0) continue;
    KahanSum& esup = next->item_esup_acc[i];
    double& sq_sum = next->item_sq_sum[i];
    for (std::size_t si = 0; si < p.count; ++si) {
      for (std::size_t k = 0; k < p.seg[si].len; ++k) {
        const double prob = p.seg[si].probs[k];
        esup.Add(prob);
        sq_sum += prob * prob;
      }
    }
    next->item_esup[i] = esup.value();
  }
  storage_ = std::move(next);
}

StreamingSnapshot StreamingFlatView::Snapshot() const {
  return StreamingSnapshot(FlatView(storage_, 0, storage_->full_size),
                           generation_);
}

}  // namespace ufim
