#include "core/transaction.h"

#include <algorithm>

namespace ufim {

Transaction::Transaction(std::vector<ProbItem> units) : units_(std::move(units)) {
  const auto by_item = [](const ProbItem& a, const ProbItem& b) {
    return a.item < b.item;
  };
  if (!std::is_sorted(units_.begin(), units_.end(), by_item)) {
    std::stable_sort(units_.begin(), units_.end(), by_item);
  }
  // Deduplicate by item in place, keeping the last occurrence, dropping
  // p <= 0. The write index never passes the read index.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < units_.size(); ++i) {
    if (i + 1 < units_.size() && units_[i + 1].item == units_[i].item) continue;
    ProbItem u = units_[i];
    if (u.prob <= 0.0) continue;
    if (u.prob > 1.0) u.prob = 1.0;
    units_[kept++] = u;
  }
  units_.resize(kept);
  // Hold no more memory than the units need, as a copy would.
  if (units_.capacity() != units_.size()) units_.shrink_to_fit();
}

double Transaction::ProbabilityOf(ItemId item) const {
  auto it = std::lower_bound(
      units_.begin(), units_.end(), item,
      [](const ProbItem& u, ItemId id) { return u.item < id; });
  if (it == units_.end() || it->item != item) return 0.0;
  return it->prob;
}

double Transaction::ItemsetProbability(const Itemset& itemset) const {
  // Merge walk: both sequences are sorted by item id.
  double prod = 1.0;
  auto ui = units_.begin();
  for (ItemId want : itemset) {
    while (ui != units_.end() && ui->item < want) ++ui;
    if (ui == units_.end() || ui->item != want) return 0.0;
    prod *= ui->prob;
    ++ui;
  }
  return itemset.empty() ? 0.0 : prod;
}

}  // namespace ufim
