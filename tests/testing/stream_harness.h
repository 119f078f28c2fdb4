#ifndef UFIM_TESTS_TESTING_STREAM_HARNESS_H_
#define UFIM_TESTS_TESTING_STREAM_HARNESS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/delta_miner.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "core/streaming_flat_view.h"
#include "core/uncertain_database.h"
#include "testing/random_db.h"

namespace ufim::testing_util {

/// One seeded, randomized append/compact/mine schedule for the streaming
/// differential harness. Everything — batch sizes (including empty
/// batches), transaction contents (long-tail item skew, duplicate item
/// draws, empty transactions), the streaming compaction policy, and the
/// forced-compaction points — is a pure function of `seed`, so a failure
/// reproduces from its seed alone.
struct StreamScheduleSpec {
  std::uint64_t seed = 1;
  std::size_t num_ops = 5;     ///< MineNext calls in the schedule
  std::size_t max_batch = 8;   ///< batch sizes drawn from [0, max_batch]
  std::size_t item_growth = 2; ///< item-universe growth per op (unseen items)
  double force_compact_prob = 0.25;  ///< explicit Compact() before a mine
  double snapshot_prob = 0.35;  ///< Snapshot() after a mine, re-checked at end
  double min_esup = 0.2;
  StreamBatchSpec batch;       ///< item/probability regime of the stream
};

/// Runs one schedule under the currently forced intersect kernel with
/// `algorithm` as the shard miner at `num_threads`, checking after every
/// `MineNext`:
///
///  1. **Layout transparency (bit-identical):** a streaming `DeltaMiner`
///     under a randomized compaction policy plus random forced
///     compactions, against a second `DeltaMiner` fed the same batches
///     whose policy compacts after *every* append — i.e. whose base is a
///     full from-scratch rebuild at each step. Results (itemsets,
///     expected supports, variances) and `MiningCounters` must match
///     bit for bit: mining may never observe whether postings are
///     contiguous or split at the base/delta seam.
///  2. **Semantic exactness:** the streaming result against the plain
///     (non-incremental) registry miner run on the accumulated database
///     built from scratch. Itemset sets must match exactly; moments are
///     compared to 1e-9 (a pattern-growth plain miner accumulates in
///     a different order).
///  3. **Snapshot immutability (bit-identical):** schedule steps take
///     `Snapshot()` handles mid-stream and record a baseline mined over
///     each at capture time; after the whole schedule — every later
///     append, policy compaction, and forced compaction — each handle is
///     re-mined and must reproduce its baseline bit for bit (results and
///     `MiningCounters`), proving mutations never touch frozen storage.
///
/// `final_result`, when given, receives the final streaming result so
/// callers can additionally pin bit-equality across thread counts.
inline void RunStreamDifferential(const StreamScheduleSpec& spec,
                                  std::string_view algorithm,
                                  std::size_t num_threads,
                                  MiningResult* final_result = nullptr) {
  Rng rng(spec.seed);

  // Draw the whole schedule up front so every variant sees identical
  // data regardless of how it consumes randomness internally.
  std::vector<std::vector<Transaction>> batches;
  std::vector<bool> force_compact;
  std::vector<bool> take_snapshot;
  batches.reserve(spec.num_ops);
  for (std::size_t op = 0; op < spec.num_ops; ++op) {
    StreamBatchSpec bs = spec.batch;
    bs.num_items += op * spec.item_growth;  // later batches grow the universe
    const std::size_t size = rng.UniformInt(0, spec.max_batch);
    batches.push_back(MakeStreamBatch(rng, bs, size));
    force_compact.push_back(rng.Bernoulli(spec.force_compact_prob));
    take_snapshot.push_back(rng.Bernoulli(spec.snapshot_prob));
  }

  // Randomized streaming policy: anything from compact-almost-always to
  // compact-never (so forced compactions and the seam path both get
  // exercised), against the compact-every-append rebuild reference.
  constexpr double kRatios[] = {0.05, 0.25, 1.0, 1e9};
  CompactionPolicy streaming_policy;
  streaming_policy.max_delta_ratio = kRatios[rng.UniformInt(0, 3)];
  streaming_policy.min_delta_units = rng.UniformInt(0, 32);
  CompactionPolicy rebuild_policy;
  rebuild_policy.max_delta_ratio = 0.0;
  rebuild_policy.min_delta_units = 0;

  ExpectedSupportParams params;
  params.min_esup = spec.min_esup;
  MinerOptions options;
  options.num_threads = num_threads;

  Result<std::unique_ptr<DeltaMiner>> streaming =
      MakeDeltaMiner(algorithm, params, options, streaming_policy);
  Result<std::unique_ptr<DeltaMiner>> rebuild =
      MakeDeltaMiner(algorithm, params, options, rebuild_policy);
  std::unique_ptr<Miner> plain =
      MinerRegistry::Global().Create(algorithm, options);
  EXPECT_TRUE(streaming.ok()) << streaming.status().ToString();
  EXPECT_TRUE(rebuild.ok()) << rebuild.status().ToString();
  EXPECT_NE(plain, nullptr);
  if (!streaming.ok() || !rebuild.ok() || plain == nullptr) return;

  struct TakenSnapshot {
    std::size_t op = 0;
    StreamingSnapshot snap;
    MiningResult at_capture;
  };
  std::vector<TakenSnapshot> snapshots;

  UncertainDatabase accumulated;
  for (std::size_t op = 0; op < batches.size(); ++op) {
    const std::string label = "seed=" + std::to_string(spec.seed) +
                              " op=" + std::to_string(op) +
                              " threads=" + std::to_string(num_threads);
    if (force_compact[op]) streaming.value()->Compact();

    Result<MiningResult> a = streaming.value()->MineNext(batches[op]);
    Result<MiningResult> b = rebuild.value()->MineNext(batches[op]);
    ASSERT_TRUE(a.ok()) << label << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << label << ": " << b.status().ToString();
    // The rebuild reference must really be the contiguous layout.
    EXPECT_FALSE(rebuild.value()->view().has_delta()) << label;

    ASSERT_EQ(a.value().size(), b.value().size()) << label;
    for (std::size_t i = 0; i < a.value().size(); ++i) {
      EXPECT_EQ(a.value()[i].itemset, b.value()[i].itemset) << label;
      EXPECT_EQ(a.value()[i].expected_support, b.value()[i].expected_support)
          << label << " " << b.value()[i].itemset.ToString();
      EXPECT_EQ(a.value()[i].variance, b.value()[i].variance)
          << label << " " << b.value()[i].itemset.ToString();
    }
    const MiningCounters& ca = a.value().counters();
    const MiningCounters& cb = b.value().counters();
    EXPECT_EQ(ca.candidates_generated, cb.candidates_generated) << label;
    EXPECT_EQ(ca.candidates_pruned_apriori, cb.candidates_pruned_apriori)
        << label;
    EXPECT_EQ(ca.candidates_rejected_bound, cb.candidates_rejected_bound)
        << label;
    EXPECT_EQ(ca.exact_tail_evals,
              cb.exact_tail_evals)
        << label;
    EXPECT_EQ(ca.database_scans, cb.database_scans) << label;

    // Semantic exactness against a from-scratch non-incremental run.
    accumulated.Append(batches[op]);
    Result<MiningResult> c = plain->Mine(FlatView(accumulated),
                                         MiningTask(params));
    ASSERT_TRUE(c.ok()) << label << ": " << c.status().ToString();
    MiningResult reference = std::move(c).value();
    reference.SortCanonical();
    ASSERT_EQ(a.value().size(), reference.size()) << label;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(a.value()[i].itemset, reference[i].itemset) << label;
      EXPECT_NEAR(a.value()[i].expected_support,
                  reference[i].expected_support, 1e-9)
          << label << " " << reference[i].itemset.ToString();
      EXPECT_NEAR(a.value()[i].variance, reference[i].variance, 1e-9)
          << label << " " << reference[i].itemset.ToString();
    }
    // Snapshot step: freeze the streaming state and record a bitwise
    // baseline over the frozen view; checked again after the schedule.
    if (take_snapshot[op]) {
      // Single-threaded schedule: this thread is the sole writer, so it
      // may also acquire snapshots.
      streaming.value()->view().AssertSoleWriter();
      TakenSnapshot taken;
      taken.op = op;
      taken.snap = streaming.value()->view().Snapshot();
      Result<MiningResult> at_capture =
          plain->Mine(taken.snap.view(), MiningTask(params));
      ASSERT_TRUE(at_capture.ok())
          << label << ": " << at_capture.status().ToString();
      taken.at_capture = std::move(at_capture).value();
      snapshots.push_back(std::move(taken));
    }

    if (final_result != nullptr) *final_result = std::move(a).value();
  }

  // Every snapshot taken along the way must re-mine bit-identically to
  // its capture-time baseline, whatever the stream did afterwards.
  for (const TakenSnapshot& taken : snapshots) {
    const std::string label = "seed=" + std::to_string(spec.seed) +
                              " snapshot-op=" + std::to_string(taken.op) +
                              " threads=" + std::to_string(num_threads);
    Result<MiningResult> again =
        plain->Mine(taken.snap.view(), MiningTask(params));
    ASSERT_TRUE(again.ok()) << label << ": " << again.status().ToString();
    ASSERT_EQ(again.value().size(), taken.at_capture.size()) << label;
    for (std::size_t i = 0; i < taken.at_capture.size(); ++i) {
      EXPECT_EQ(again.value()[i].itemset, taken.at_capture[i].itemset)
          << label;
      EXPECT_EQ(again.value()[i].expected_support,
                taken.at_capture[i].expected_support)
          << label << " " << taken.at_capture[i].itemset.ToString();
      EXPECT_EQ(again.value()[i].variance, taken.at_capture[i].variance)
          << label << " " << taken.at_capture[i].itemset.ToString();
    }
    const MiningCounters& cr = again.value().counters();
    const MiningCounters& cs = taken.at_capture.counters();
    EXPECT_EQ(cr.candidates_generated, cs.candidates_generated) << label;
    EXPECT_EQ(cr.candidates_pruned_apriori, cs.candidates_pruned_apriori)
        << label;
    EXPECT_EQ(cr.candidates_rejected_bound, cs.candidates_rejected_bound)
        << label;
    EXPECT_EQ(cr.exact_tail_evals, cs.exact_tail_evals) << label;
    EXPECT_EQ(cr.database_scans, cs.database_scans) << label;
  }
}

}  // namespace ufim::testing_util

#endif  // UFIM_TESTS_TESTING_STREAM_HARNESS_H_
