#ifndef UFIM_TESTS_TESTING_POSSIBLE_WORLDS_H_
#define UFIM_TESTS_TESTING_POSSIBLE_WORLDS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/uncertain_database.h"

namespace ufim::testing_util {

/// Possible-world semantics of an uncertain database — the formal ground
/// truth beneath both frequentness definitions. A *world* is one
/// deterministic database obtained by independently keeping each unit
/// with its probability; the support of X in the uncertain database is
/// exactly the distribution of X's deterministic support across worlds.
///
/// The enumerator is exponential (2^#units) and exists as the semantic
/// oracle for the tests; the sampler scales.

/// One deterministic world: per transaction, the item ids that
/// materialized (sorted).
using World = std::vector<std::vector<ItemId>>;

namespace internal {

/// Flattened view of all units for mask-based enumeration.
struct UnitRef {
  std::uint32_t txn;
  ItemId item;
  double prob;
};

inline std::vector<UnitRef> FlattenUnits(const UncertainDatabase& db) {
  std::vector<UnitRef> units;
  for (std::size_t t = 0; t < db.size(); ++t) {
    for (const ProbItem& u : db[t]) {
      units.push_back(UnitRef{static_cast<std::uint32_t>(t), u.item, u.prob});
    }
  }
  return units;
}

}  // namespace internal

/// Deterministic support count of `itemset` in a world.
inline std::size_t WorldSupport(const World& world, const Itemset& itemset) {
  std::size_t support = 0;
  for (const std::vector<ItemId>& txn : world) {
    bool all = true;
    for (ItemId want : itemset) {
      if (!std::binary_search(txn.begin(), txn.end(), want)) {
        all = false;
        break;
      }
    }
    if (all && !itemset.empty()) ++support;
  }
  return support;
}

/// Enumerates every possible world with its probability and invokes
/// `visit(world, probability)`. Returns InvalidArgument when the database
/// has more than `max_units` units (the default bounds the enumeration
/// to ~1M worlds). World probabilities sum to 1 over the enumeration.
inline Status EnumerateWorlds(
    const UncertainDatabase& db,
    const std::function<void(const World&, double)>& visit,
    std::size_t max_units = 20) {
  const std::vector<internal::UnitRef> units = internal::FlattenUnits(db);
  if (units.size() > max_units) {
    return Status::InvalidArgument(
        "database has " + std::to_string(units.size()) +
        " units; enumeration is capped at " + std::to_string(max_units));
  }
  const std::size_t n = units.size();
  World world(db.size());
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    double prob = 1.0;
    for (auto& txn : world) txn.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::uint64_t{1} << i)) {
        prob *= units[i].prob;
        world[units[i].txn].push_back(units[i].item);
      } else {
        prob *= 1.0 - units[i].prob;
      }
    }
    if (prob == 0.0) continue;
    for (auto& txn : world) std::sort(txn.begin(), txn.end());
    visit(world, prob);
  }
  return Status::OK();
}

/// The exact support distribution of `itemset` computed by brute-force
/// world enumeration: result[k] = Pr(sup = k), length db.size() + 1.
/// Same preconditions as EnumerateWorlds. This path shares *no* code
/// with prob/poisson_binomial, making it an independent oracle.
inline Result<std::vector<double>> SupportDistributionByEnumeration(
    const UncertainDatabase& db, const Itemset& itemset,
    std::size_t max_units = 20) {
  std::vector<double> pmf(db.size() + 1, 0.0);
  Status s = EnumerateWorlds(
      db,
      [&pmf, &itemset](const World& world, double prob) {
        pmf[WorldSupport(world, itemset)] += prob;
      },
      max_units);
  if (!s.ok()) return s;
  return pmf;
}

/// Samples one world (each unit kept independently with its probability).
inline World SampleWorld(const UncertainDatabase& db, Rng& rng) {
  World world(db.size());
  for (std::size_t t = 0; t < db.size(); ++t) {
    for (const ProbItem& u : db[t]) {
      if (rng.Bernoulli(u.prob)) world[t].push_back(u.item);
    }
    // Units are already item-sorted within a transaction.
  }
  return world;
}

/// Monte-Carlo estimate of Pr(sup(X) >= msc) from `num_samples` sampled
/// worlds. Unbiased; standard error <= 1/(2 sqrt(num_samples)).
inline double EstimateFrequentProbability(const UncertainDatabase& db,
                                          const Itemset& itemset,
                                          std::size_t msc,
                                          std::size_t num_samples, Rng& rng) {
  if (num_samples == 0) return 0.0;
  std::size_t hits = 0;
  for (std::size_t s = 0; s < num_samples; ++s) {
    if (WorldSupport(SampleWorld(db, rng), itemset) >= msc) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(num_samples);
}

}  // namespace ufim::testing_util

#endif  // UFIM_TESTS_TESTING_POSSIBLE_WORLDS_H_
