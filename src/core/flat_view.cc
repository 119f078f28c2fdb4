#include "core/flat_view.h"

#include <algorithm>

#include "common/math_util.h"

namespace ufim {

std::shared_ptr<const FlatView::Storage> FlatView::BuildStorage(
    std::span<const Transaction> txns, std::size_t num_items) {
  auto s = std::make_shared<Storage>();
  s->num_items = num_items;
  s->full_size = txns.size();
  s->base_size = txns.size();

  // Pass 1: postings counted per item so the CSR arrays are filled
  // without reallocation.
  Csr b;
  std::size_t total_units = 0;
  std::vector<std::size_t> item_counts(num_items, 0);
  for (const Transaction& t : txns) {
    total_units += t.size();
    for (const ProbItem& u : t) ++item_counts[u.item];
  }

  b.item_offsets.assign(num_items + 1, 0);
  for (std::size_t i = 0; i < num_items; ++i) {
    b.item_offsets[i + 1] = b.item_offsets[i] + item_counts[i];
  }
  b.posting_tids.resize(total_units);
  b.posting_probs.resize(total_units);
  s->item_esup.assign(num_items, 0.0);
  s->item_sq_sum.assign(num_items, 0.0);
  s->item_esup_acc.assign(num_items, KahanSum());

  // Pass 2: fill. Transactions are visited in ascending tid order, so
  // each item's postings come out tid-sorted by construction. The Kahan
  // accumulators are retained in the storage: a streaming view continues
  // them across appends, which keeps the cached moments bit-identical to
  // a from-scratch rebuild at every point of the stream.
  std::vector<std::size_t> fill(b.item_offsets.begin(),
                                b.item_offsets.end() - 1);
  for (std::size_t ti = 0; ti < txns.size(); ++ti) {
    for (const ProbItem& u : txns[ti]) {
      const std::size_t pos = fill[u.item]++;
      b.posting_tids[pos] = static_cast<TransactionId>(ti);
      b.posting_probs[pos] = u.prob;
      s->item_esup_acc[u.item].Add(u.prob);
      s->item_sq_sum[u.item] += u.prob * u.prob;
    }
  }
  for (std::size_t i = 0; i < num_items; ++i) {
    s->item_esup[i] = s->item_esup_acc[i].value();
  }
  s->base = std::make_shared<const Csr>(std::move(b));
  return s;
}

std::shared_ptr<const FlatView::Csr> FlatView::MergeColumns(
    std::initializer_list<FlatView> parts, std::size_t num_items) {
  // Per item, the parts' postings follow each other in tid order, so the
  // merge is a counting pass plus contiguous copies — the layout a
  // from-scratch build of the same transactions produces.
  Csr out;
  out.item_offsets.assign(num_items + 1, 0);
  for (std::size_t i = 0; i < num_items; ++i) {
    std::size_t len = 0;
    for (const FlatView& part : parts) {
      len += part.PostingCount(static_cast<ItemId>(i));
    }
    out.item_offsets[i + 1] = out.item_offsets[i] + len;
  }
  out.posting_tids.resize(out.item_offsets.back());
  out.posting_probs.resize(out.item_offsets.back());
  for (std::size_t i = 0; i < num_items; ++i) {
    std::size_t pos = out.item_offsets[i];
    TransactionId next_tid = parts.begin()->begin_tid();
    for (const FlatView& part : parts) {
      const TransactionId shift = next_tid - part.begin_tid();
      const SegmentedPostings p = part.PostingSegments(static_cast<ItemId>(i));
      for (std::size_t si = 0; si < p.count; ++si) {
        const PostingSegment& seg = p.seg[si];
        std::transform(seg.tids, seg.tids + seg.len,
                       out.posting_tids.begin() + pos,
                       [shift](TransactionId t) { return t + shift; });
        std::copy_n(seg.probs, seg.len, out.posting_probs.begin() + pos);
        pos += seg.len;
      }
      next_tid += static_cast<TransactionId>(part.num_transactions());
    }
  }
  return std::make_shared<const Csr>(std::move(out));
}

void FlatView::Csr::AppendSegment(ItemId item, std::size_t run_lo,
                                  std::size_t run_hi, std::size_t begin,
                                  std::size_t end,
                                  SegmentedPostings& out) const {
  if (item >= num_items() || begin >= run_hi || end <= run_lo) return;
  const auto first = posting_tids.begin();
  std::size_t lo = item_offsets[item];
  std::size_t hi = item_offsets[item + 1];
  if (begin > run_lo) {
    lo = static_cast<std::size_t>(
        std::lower_bound(first + lo, first + hi,
                         static_cast<TransactionId>(begin)) -
        first);
  }
  if (end < run_hi) {
    hi = static_cast<std::size_t>(
        std::lower_bound(first + lo, first + hi,
                         static_cast<TransactionId>(end)) -
        first);
  }
  if (hi > lo) {
    out.seg[out.count++] = PostingSegment{
        posting_tids.data() + lo, posting_probs.data() + lo, hi - lo};
    out.total += hi - lo;
  }
}

namespace {

/// One past the largest item id in `txns` (0 when there is none).
std::size_t ItemUniverse(std::span<const Transaction> txns) {
  std::size_t num_items = 0;
  for (const Transaction& t : txns) {
    // Units are sorted, so back() is the transaction's largest item.
    if (!t.empty()) {
      num_items = std::max(num_items, std::size_t{t.units().back().item} + 1);
    }
  }
  return num_items;
}

}  // namespace

FlatView::FlatView(std::span<const Transaction> txns)
    : FlatView(txns, ItemUniverse(txns)) {}

FlatView::FlatView(const UncertainDatabase& db)
    : FlatView(db.transactions(), db.num_items()) {}

FlatView::FlatView(std::span<const Transaction> txns, std::size_t num_items)
    : storage_(BuildStorage(txns, num_items)),
      end_(storage_->full_size) {}

std::size_t FlatView::num_units() const {
  const Storage& s = *storage_;
  if (IsFullView()) return s.num_units();
  std::size_t units = 0;
  for (std::size_t i = 0; i < s.num_items; ++i) {
    units += PostingCount(static_cast<ItemId>(i));
  }
  return units;
}

SegmentedPostings FlatView::PostingSegments(ItemId item) const {
  const Storage& s = *storage_;
  SegmentedPostings out;
  s.base->AppendSegment(item, 0, s.base_size, begin_, end_, out);
  if (s.delta != nullptr) {
    s.delta->AppendSegment(item, s.base_size, s.full_size, begin_, end_, out);
  }
  return out;
}

void FlatView::CopyPostings(ItemId item, std::vector<TransactionId>& tids,
                            std::vector<double>& probs) const {
  const SegmentedPostings p = PostingSegments(item);
  tids.clear();
  probs.clear();
  tids.reserve(p.total);
  probs.reserve(p.total);
  for (std::size_t si = 0; si < p.count; ++si) {
    tids.insert(tids.end(), p.seg[si].tids, p.seg[si].tids + p.seg[si].len);
    probs.insert(probs.end(), p.seg[si].probs, p.seg[si].probs + p.seg[si].len);
  }
}

void FlatView::AppendPostingProbs(ItemId item,
                                  std::vector<double>& probs) const {
  const SegmentedPostings p = PostingSegments(item);
  probs.reserve(probs.size() + p.total);
  for (std::size_t si = 0; si < p.count; ++si) {
    probs.insert(probs.end(), p.seg[si].probs, p.seg[si].probs + p.seg[si].len);
  }
}

double FlatView::ItemExpectedSupport(ItemId item) const {
  if (item >= storage_->num_items) return 0.0;
  if (IsFullView()) return storage_->item_esup[item];
  // Segments in tid order give the same Add sequence a contiguous
  // rebuild of the slice would produce.
  const SegmentedPostings p = PostingSegments(item);
  KahanSum sum;
  for (std::size_t si = 0; si < p.count; ++si) {
    for (std::size_t k = 0; k < p.seg[si].len; ++k) sum.Add(p.seg[si].probs[k]);
  }
  return sum.value();
}

double FlatView::ItemSquaredSum(ItemId item) const {
  if (item >= storage_->num_items) return 0.0;
  if (IsFullView()) return storage_->item_sq_sum[item];
  const SegmentedPostings p = PostingSegments(item);
  double sum = 0.0;
  for (std::size_t si = 0; si < p.count; ++si) {
    for (std::size_t k = 0; k < p.seg[si].len; ++k) {
      sum += p.seg[si].probs[k] * p.seg[si].probs[k];
    }
  }
  return sum;
}

double FlatView::ExpectedSupport(const Itemset& itemset) const {
  KahanSum sum;
  for (double p : ContainmentProbabilities(itemset)) sum.Add(p);
  return sum.value();
}

std::vector<double> FlatView::ContainmentProbabilities(
    const Itemset& itemset) const {
  std::vector<double> out;
  JoinScratch scratch;
  JoinPostingsBatched(itemset, scratch, [&out](const JoinBatch& batch) {
    out.insert(out.end(), batch.prods.begin(), batch.prods.end());
    return true;
  });
  return out;
}

/// Folds one member side into the survivor columns: intersects the
/// `n` ascending survivor tids in `src_t` against the member's remaining
/// segments and writes the matches (tids and running products) to the
/// front of `st` / `sp`. Segments are tid-partitioned, so the survivor
/// range splits at the next segment's first tid and each piece
/// intersects one contiguous segment — the match set, its order, and the
/// per-tid multiplication are exactly those of a contiguous member
/// array, whatever the physical layout.
///
/// In-place operation (`src_t == st`) is safe: matches within a piece
/// ascend, pieces are consumed left to right, and the write cursor never
/// passes the read cursor.
std::size_t FlatView::FoldMember(const TransactionId* src_t,
                                 const double* src_p, std::size_t n,
                                 const JoinScratch::Side& m, TransactionId* st,
                                 double* sp, std::uint32_t* ma,
                                 std::uint32_t* mb) {
  std::size_t out = 0;
  std::size_t doff = 0;
  for (std::size_t si = m.cur; si < m.postings.count && doff < n; ++si) {
    const PostingSegment& seg = m.postings.seg[si];
    const std::size_t mpos = (si == m.cur) ? m.pos : 0;
    if (mpos >= seg.len) continue;
    // Survivor tids below the next segment's first tid can only match
    // this segment (later survivors only later segments).
    std::size_t dsub = n - doff;
    if (si + 1 < m.postings.count) {
      dsub = static_cast<std::size_t>(
          std::lower_bound(src_t + doff, src_t + n,
                           m.postings.seg[si + 1].tids[0]) -
          (src_t + doff));
    }
    if (dsub == 0) continue;
    const std::size_t k = IntersectIndices(src_t + doff, dsub, seg.tids + mpos,
                                           seg.len - mpos, ma, mb);
    const double* const mp = seg.probs + mpos;
    for (std::size_t j = 0; j < k; ++j) {
      st[out + j] = src_t[doff + ma[j]];
      sp[out + j] = src_p[doff + ma[j]] * mp[mb[j]];
    }
    out += k;
    doff += dsub;
  }
  return out;
}

/// Advances a side's segment cursor past every posting with tid <=
/// `last_tid` (future driver tids are strictly greater, so those
/// postings can never match again).
void FlatView::AdvanceSide(JoinScratch::Side& m, TransactionId last_tid) {
  while (m.cur < m.postings.count) {
    const PostingSegment& seg = m.postings.seg[m.cur];
    const std::size_t np = static_cast<std::size_t>(
        std::upper_bound(seg.tids + m.pos, seg.tids + seg.len, last_tid) -
        seg.tids);
    m.pos = np;
    if (np < seg.len) return;
    ++m.cur;
    m.pos = 0;
  }
}

std::size_t FlatView::JoinDriver(const Itemset& itemset) const {
  const std::vector<ItemId>& items = itemset.items();
  if (items.empty()) return 0;
  std::size_t driver = 0;
  std::size_t shortest = PostingCount(items[0]);
  for (std::size_t k = 1; k < items.size(); ++k) {
    const std::size_t len = PostingCount(items[k]);
    if (len < shortest) {
      shortest = len;
      driver = k;
    }
  }
  return driver;
}

bool FlatView::BeginJoin(const Itemset& itemset, std::size_t driver,
                         JoinScratch& s) const {
  const std::vector<ItemId>& items = itemset.items();
  if (items.empty()) return false;
  if (driver == kShortestDriver) driver = JoinDriver(itemset);
  s.driver_postings_ = PostingSegments(items[driver]);
  if (s.driver_postings_.total == 0) return false;

  s.members_.clear();
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (k == driver) continue;
    JoinScratch::Side side;
    side.postings = PostingSegments(items[k]);
    s.members_.push_back(side);
  }
  s.driver_len_ = s.driver_postings_.total;
  s.driver_pos_ = 0;
  s.EnsureCapacity(kJoinBatchTids);
  return true;
}

bool FlatView::NextJoinBatch(JoinScratch& s, JoinBatch& batch) const {
  if (s.driver_pos_ >= s.driver_len_) return false;
  const std::size_t lo = s.driver_pos_;
  const std::size_t len = std::min(kJoinBatchTids, s.driver_len_ - lo);
  s.driver_pos_ = lo + len;

  batch.driver_done = s.driver_pos_;
  batch.driver_len = s.driver_len_;

  // Locate the batch's driver postings. A batch inside one segment is
  // used zero-copy; a batch straddling the base/delta seam (at most one
  // per join) is materialized into the survivor columns first — either
  // way the downstream folds see one contiguous ascending tid run, so
  // the batch structure is identical to a contiguous rebuild's.
  TransactionId* const st = s.tids_.data();
  double* const sp = s.prods_.data();
  const std::size_t b0 =
      s.driver_postings_.count > 0 ? s.driver_postings_.seg[0].len : 0;
  const TransactionId* src_t;
  const double* src_p;
  if (lo + len <= b0 || lo >= b0) {
    const bool in_delta = lo >= b0;
    const PostingSegment& seg = s.driver_postings_.seg[in_delta ? 1 : 0];
    const std::size_t off = in_delta ? lo - b0 : lo;
    src_t = seg.tids + off;
    src_p = seg.probs + off;
  } else {
    const PostingSegment& a = s.driver_postings_.seg[0];
    const PostingSegment& b = s.driver_postings_.seg[1];
    const std::size_t head = b0 - lo;
    std::copy_n(a.tids + lo, head, st);
    std::copy_n(a.probs + lo, head, sp);
    std::copy_n(b.tids, len - head, st + head);
    std::copy_n(b.probs, len - head, sp + head);
    src_t = st;
    src_p = sp;
  }

  if (s.members_.empty()) {
    // Single-item join: the batch is the driver slice itself, no copy
    // (beyond the at-most-once seam materialization above).
    batch.tids = {src_t, len};
    batch.prods = {src_p, len};
    return true;
  }

  const TransactionId last_tid = src_t[len - 1];

  // Fold members in fixed member order: intersect the current survivor
  // tids against the member's segments, then multiply the member's
  // probabilities into the running products. The first fold reads from
  // the driver arrays into the scratch columns; subsequent folds compact
  // in place.
  std::size_t survivors = len;
  for (JoinScratch::Side& m : s.members_) {
    survivors = FoldMember(src_t, src_p, survivors, m, st, sp,
                           s.match_a_.data(), s.match_b_.data());
    src_t = st;
    src_p = sp;
    if (survivors == 0) break;
  }

  // Advance every member past this batch's driver range.
  for (JoinScratch::Side& m : s.members_) AdvanceSide(m, last_tid);

  batch.tids = {st, survivors};
  batch.prods = {sp, survivors};
  return true;
}

FlatView::ListMatches FlatView::JoinWithPostings(
    std::span<const TransactionId> seq_tids, ItemId item,
    JoinScratch& s) const {
  const SegmentedPostings p = PostingSegments(item);
  s.EnsureCapacity(std::min(seq_tids.size(), p.total));
  std::uint32_t* const ma = s.match_a_.data();
  std::uint32_t* const mb = s.match_b_.data();
  std::size_t total = 0;
  std::size_t doff = 0;
  for (std::size_t si = 0; si < p.count && doff < seq_tids.size(); ++si) {
    const PostingSegment& seg = p.seg[si];
    // Sequence positions below the next segment's first tid can only
    // match this segment (tid-partitioned segments, as in FoldMember).
    std::size_t dsub = seq_tids.size() - doff;
    if (si + 1 < p.count) {
      dsub = static_cast<std::size_t>(
          std::lower_bound(seq_tids.begin() + doff, seq_tids.end(),
                           p.seg[si + 1].tids[0]) -
          (seq_tids.begin() + doff));
    }
    if (dsub == 0) continue;
    const std::size_t k =
        IntersectIndices(seq_tids.data() + doff, dsub, seg.tids, seg.len,
                         ma + total, mb + total);
    for (std::size_t j = 0; j < k; ++j) {
      ma[total + j] += static_cast<std::uint32_t>(doff);
      s.prods_[total + j] = seg.probs[mb[total + j]];
    }
    total += k;
    doff += dsub;
  }
  return ListMatches{{ma, total}, {s.prods_.data(), total}};
}

FlatView::RankProjection FlatView::ProjectOntoRanks(
    std::span<const ItemId> rank_to_item) const {
  RankProjection out;
  const std::size_t n_txn = num_transactions();
  const TransactionId first = begin_tid();
  out.txn_offsets.assign(n_txn + 1, 0);

  // Counting pass (counts shifted by one so the in-place prefix sum
  // below yields offsets directly).
  for (const ItemId item : rank_to_item) {
    const SegmentedPostings p = PostingSegments(item);
    for (std::size_t si = 0; si < p.count; ++si) {
      for (std::size_t k = 0; k < p.seg[si].len; ++k) {
        ++out.txn_offsets[p.seg[si].tids[k] - first + 1];
      }
    }
  }
  for (std::size_t t = 0; t < n_txn; ++t) {
    out.txn_offsets[t + 1] += out.txn_offsets[t];
  }
  out.units.resize(out.txn_offsets.back());

  // Fill pass in ascending rank order: each row comes out rank-sorted
  // by construction.
  std::vector<std::uint32_t> fill(out.txn_offsets.begin(),
                                  out.txn_offsets.end() - 1);
  for (std::uint32_t r = 0; r < rank_to_item.size(); ++r) {
    const SegmentedPostings p = PostingSegments(rank_to_item[r]);
    for (std::size_t si = 0; si < p.count; ++si) {
      const PostingSegment& seg = p.seg[si];
      for (std::size_t k = 0; k < seg.len; ++k) {
        out.units[fill[seg.tids[k] - first]++] = RankUnit{r, seg.probs[k]};
      }
    }
  }
  return out;
}

FlatView FlatView::Slice(std::size_t lo, std::size_t hi) const {
  const std::size_t n = num_transactions();
  lo = std::min(lo, n);
  hi = std::min(std::max(hi, lo), n);
  return FlatView(storage_, begin_ + lo, begin_ + hi);
}

}  // namespace ufim
