#ifndef UFIM_CORE_UNCERTAIN_DATABASE_H_
#define UFIM_CORE_UNCERTAIN_DATABASE_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/transaction.h"
#include "core/types.h"

namespace ufim {

/// Summary statistics of a database (the columns of the paper's Table 6).
struct DatabaseStats {
  std::size_t num_transactions = 0;
  std::size_t num_items = 0;       ///< size of the item universe actually used
  double avg_length = 0.0;         ///< average units per transaction
  double density = 0.0;            ///< avg_length / num_items
  double mean_probability = 0.0;   ///< mean of all unit probabilities
};

/// An uncertain transaction database (UDB): the central data model.
///
/// Owns its transactions. Item ids should be dense but need not be
/// contiguous; `num_items()` reports one past the largest id seen.
class UncertainDatabase {
 public:
  UncertainDatabase() = default;

  /// Takes ownership of `transactions`.
  explicit UncertainDatabase(std::vector<Transaction> transactions);

  std::size_t size() const { return transactions_.size(); }
  bool empty() const { return transactions_.empty(); }

  const Transaction& operator[](std::size_t i) const { return transactions_[i]; }
  const std::vector<Transaction>& transactions() const { return transactions_; }

  std::vector<Transaction>::const_iterator begin() const {
    return transactions_.begin();
  }
  std::vector<Transaction>::const_iterator end() const {
    return transactions_.end();
  }

  /// Appends a transaction (updates cached stats incrementally).
  void Add(Transaction t);

  /// Appends a batch of transactions (streams ingest through
  /// `DeltaMiner::MineNext`, not through this). Equivalent to `Add` per
  /// transaction: every eagerly maintained cache
  /// (currently `num_items`) is updated as part of the append, never
  /// invalidated, so the contract below holds mid-stream exactly as it
  /// does after construction.
  void Append(std::span<const Transaction> batch);

  /// One past the largest item id present (0 for an empty database).
  ///
  /// Cache contract: maintained *eagerly* by the constructor, `Add`, and
  /// `Append` — the value is always consistent with `transactions()`
  /// right after any mutating call returns, and const reads never race
  /// on a lazy fill (parallel miners read it concurrently). Appending a
  /// transaction whose largest item is below the current value leaves it
  /// unchanged (the universe never shrinks), matching what a
  /// from-scratch rebuild over the same transactions would report as
  /// long as ids are dense; this is what lets `StreamingFlatView` and
  /// the streaming differential harness rebuild databases incrementally
  /// without re-deriving the item universe.
  std::size_t num_items() const { return num_items_; }

  /// Computes summary statistics with one pass.
  DatabaseStats ComputeStats() const;

  /// Expected support of a single item: sum of its probabilities over all
  /// transactions (Definition 1 specialised to a 1-itemset). O(total units).
  double ItemExpectedSupport(ItemId item) const;

  /// Expected support of an arbitrary itemset via a full scan
  /// (Definition 1). Intended for tests and small inputs; the miners use
  /// their own incremental structures.
  double ExpectedSupport(const Itemset& itemset) const;

  /// Per-transaction containment probabilities Pr(X ⊆ T_i), skipping
  /// zeros. The support distribution of X is the Poisson-binomial over
  /// this vector — the bridge every algorithm in the paper builds on.
  std::vector<double> ContainmentProbabilities(const Itemset& itemset) const;

  /// Returns a database consisting of the first `n` transactions (used by
  /// the scalability experiments). Clamps n to size().
  UncertainDatabase Prefix(std::size_t n) const;

  /// Validates invariants: probabilities in (0, 1], units sorted, no
  /// duplicate items in one transaction.
  Status Validate() const;

 private:
  /// Folds `t` into the eagerly maintained stats (currently num_items_).
  void NoteTransaction(const Transaction& t);

  std::vector<Transaction> transactions_;
  std::size_t num_items_ = 0;
};

}  // namespace ufim

#endif  // UFIM_CORE_UNCERTAIN_DATABASE_H_
