// Parallel-vs-sequential and kernel-vs-kernel equivalence: every
// registered algorithm must produce results *identical* to its scalar
// num_threads = 1 run at any thread count AND under any forced
// intersection kernel — not approximately equal. The parallel kernels
// promise deterministic partitioning (posting joins split by candidate,
// the pair triangle by first item, tail evaluations judged per
// candidate), and the batch join kernel
// promises a float evaluation order independent of how the set
// intersection was computed (scalar, galloping, or SIMD) and of which
// other candidates share the call, so these tests compare doubles with
// EXPECT_EQ.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/apriori_framework.h"
#include "algo/uh_struct.h"
#include "common/rng.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "core/simd_intersect.h"
#include "core/streaming_flat_view.h"
#include "testing/fault_injection.h"
#include "testing/random_db.h"

namespace ufim {
namespace {

using testing_util::CountCheckpoints;
using testing_util::MakeRandomDatabase;
using testing_util::RandomDbSpec;

constexpr std::size_t kThreadCounts[] = {2, 8};

constexpr IntersectKernel kKernels[] = {
    IntersectKernel::kScalar, IntersectKernel::kGallop,
    IntersectKernel::kSimd};

/// Forces a kernel for one scope and restores the heuristic on exit.
struct ScopedKernel {
  explicit ScopedKernel(IntersectKernel k) { SetIntersectKernel(k); }
  ~ScopedKernel() { SetIntersectKernel(IntersectKernel::kAuto); }
};

MiningTask TaskFor(TaskFamily family) {
  switch (family) {
    case TaskFamily::kExpectedSupport: {
      ExpectedSupportParams params;
      params.min_esup = 0.12;
      return params;
    }
    case TaskFamily::kProbabilistic: {
      ProbabilisticParams params;
      params.min_sup = 0.25;
      params.pft = 0.6;
      return params;
    }
    case TaskFamily::kTopK: {
      TopKParams params;
      params.k = 12;
      return params;
    }
  }
  return ExpectedSupportParams{};
}

void ExpectIdentical(const MiningResult& actual, const MiningResult& expect,
                     const std::string& label) {
  ASSERT_EQ(actual.size(), expect.size()) << label;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(actual[i].itemset, expect[i].itemset) << label;
    EXPECT_EQ(actual[i].expected_support, expect[i].expected_support)
        << label << " " << expect[i].itemset.ToString();
    EXPECT_EQ(actual[i].variance, expect[i].variance)
        << label << " " << expect[i].itemset.ToString();
    ASSERT_EQ(actual[i].frequent_probability.has_value(),
              expect[i].frequent_probability.has_value())
        << label;
    if (expect[i].frequent_probability.has_value()) {
      EXPECT_EQ(*actual[i].frequent_probability,
                *expect[i].frequent_probability)
          << label << " " << expect[i].itemset.ToString();
    }
  }
}

/// Runs every registered algorithm (production and oracle) on `db`
/// across {scalar, gallop, simd} × {1, 2, 8 threads} and requires
/// results bit-identical to the scalar single-thread run — including
/// identical work counters, since neither the parallel paths nor the
/// intersection kernels may change what is evaluated, only how.
void CheckAllMiners(const UncertainDatabase& db, const std::string& tag) {
  FlatView view(db);
  for (const std::string& name : MinerRegistry::Global().Names()) {
    const MinerEntry* entry = MinerRegistry::Global().Find(name);
    ASSERT_NE(entry, nullptr);
    const MiningTask task = TaskFor(entry->family);

    Result<MiningResult> baseline = Status::Internal("not run");
    {
      ScopedKernel forced(IntersectKernel::kScalar);
      MinerOptions baseline_options;
      baseline_options.num_threads = 1;
      baseline = MinerRegistry::Global()
                     .Create(name, baseline_options)
                     ->Mine(view, task);
    }
    ASSERT_TRUE(baseline.ok()) << name << ": " << baseline.status().ToString();

    for (const IntersectKernel kernel : kKernels) {
      ScopedKernel forced(kernel);
      for (std::size_t threads : {std::size_t{1}, kThreadCounts[0],
                                  kThreadCounts[1]}) {
        if (kernel == IntersectKernel::kScalar && threads == 1) continue;
        MinerOptions options;
        options.num_threads = threads;
        auto run =
            MinerRegistry::Global().Create(name, options)->Mine(view, task);
        ASSERT_TRUE(run.ok()) << name;
        const std::string label = tag + "/" + name + "@" +
                                  std::to_string(threads) + "/" +
                                  IntersectKernelName(kernel);
        ExpectIdentical(run.value(), baseline.value(), label);
        EXPECT_EQ(run->counters().candidates_generated,
                  baseline->counters().candidates_generated)
            << label;
        EXPECT_EQ(run->counters().candidates_rejected_bound,
                  baseline->counters().candidates_rejected_bound)
            << label;
        EXPECT_EQ(run->counters().exact_tail_evals,
                  baseline->counters().exact_tail_evals)
            << label;
      }
    }
  }
}

TEST(ParallelEquivalenceTest, AllMinersOnDenseRandomDatabase) {
  CheckAllMiners(MakeRandomDatabase({.seed = 51,
                                     .num_transactions = 60,
                                     .num_items = 9,
                                     .item_presence = 0.6}),
                 "dense");
}

TEST(ParallelEquivalenceTest, AllMinersOnSparseRandomDatabase) {
  CheckAllMiners(MakeRandomDatabase({.seed = 52,
                                     .num_transactions = 90,
                                     .num_items = 14,
                                     .item_presence = 0.25}),
                 "sparse");
}

TEST(ParallelEquivalenceTest, AllMinersOnLowProbabilityDatabase) {
  CheckAllMiners(MakeRandomDatabase({.seed = 53,
                                     .num_transactions = 70,
                                     .num_items = 10,
                                     .item_presence = 0.5,
                                     .min_prob = 0.05,
                                     .max_prob = 0.4}),
                 "low-prob");
}

/// The DC miners conquer by FFT once both halves carry at least 64
/// coefficients, which the databases above never reach (msc <= 23). At
/// msc >= 128 every frequent itemset's tail has an FFT conquer at its
/// root, so this runs the per-worker DC scratch and the per-thread FFT
/// twiddle table on concurrent workers.
TEST(ParallelEquivalenceTest, DcFftConquerAcrossThreadCounts) {
  FlatView view(MakeRandomDatabase({.seed = 54,
                                    .num_transactions = 400,
                                    .num_items = 8,
                                    .item_presence = 0.9,
                                    .min_prob = 0.5,
                                    .max_prob = 1.0}));
  ProbabilisticParams params;
  params.min_sup = 0.35;
  params.pft = 0.7;
  ASSERT_GE(params.MinSupportCount(view.num_transactions()), 128u);
  for (const char* name : {"DCB", "DCNB"}) {
    for (PrefilterMode prefilter : {PrefilterMode::kOff, PrefilterMode::kBounds}) {
      MinerOptions options;
      options.prefilter = prefilter;
      options.num_threads = 1;
      auto baseline =
          MinerRegistry::Global().Create(name, options)->Mine(view, params);
      ASSERT_TRUE(baseline.ok()) << name;
      ASSERT_GT(baseline->size(), 0u) << name;
      for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        options.num_threads = threads;
        auto run =
            MinerRegistry::Global().Create(name, options)->Mine(view, params);
        ASSERT_TRUE(run.ok()) << name;
        const std::string label = std::string(name) + "/" +
                                  std::string(PrefilterModeName(prefilter)) +
                                  "@" + std::to_string(threads);
        ExpectIdentical(run.value(), baseline.value(), label);
        const MiningCounters& got = run->counters();
        const MiningCounters& want = baseline->counters();
        EXPECT_EQ(got.candidates_generated, want.candidates_generated) << label;
        EXPECT_EQ(got.candidates_pruned_apriori, want.candidates_pruned_apriori)
            << label;
        EXPECT_EQ(got.candidates_rejected_bound, want.candidates_rejected_bound)
            << label;
        EXPECT_EQ(got.candidates_accepted_bound, want.candidates_accepted_bound)
            << label;
        EXPECT_EQ(got.exact_tail_evals, want.exact_tail_evals) << label;
        EXPECT_EQ(got.database_scans, want.database_scans) << label;
      }
    }
  }
}

/// The pattern-growth miners (UFP-growth, UH-Mine, NDUH-Mine) mine
/// task-parallel over top-level header ranks since PR 4. The generic
/// matrix above already covers them on small databases; this test works
/// them harder — more transactions, more items, a threshold low enough
/// for several projection levels — so the per-rank merge and the
/// task-local scratch are exercised with real recursion depth.
TEST(ParallelEquivalenceTest, PatternGrowthMinersDeepRecursion) {
  const UncertainDatabase db =
      MakeRandomDatabase({.seed = 57,
                          .num_transactions = 220,
                          .num_items = 18,
                          .item_presence = 0.45,
                          .min_prob = 0.3,
                          .max_prob = 1.0});
  FlatView view(db);
  struct Case {
    const char* name;
    MiningTask task;
  };
  ExpectedSupportParams esup_params;
  esup_params.min_esup = 0.04;  // deep: many frequent itemsets
  ProbabilisticParams prob_params;
  prob_params.min_sup = 0.08;
  prob_params.pft = 0.5;
  const Case cases[] = {
      {"UFP-growth", esup_params},
      {"UH-Mine", esup_params},
      {"NDUH-Mine", prob_params},
  };
  for (const Case& c : cases) {
    Result<MiningResult> baseline = Status::Internal("not run");
    {
      ScopedKernel forced(IntersectKernel::kScalar);
      MinerOptions options;
      options.num_threads = 1;
      baseline = MinerRegistry::Global().Create(c.name, options)->Mine(view, c.task);
    }
    ASSERT_TRUE(baseline.ok()) << c.name;
    ASSERT_GT(baseline->size(), 50u) << c.name << ": not deep enough to be "
                                     << "a meaningful parallel test";
    for (const IntersectKernel kernel : kKernels) {
      ScopedKernel forced(kernel);
      for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        MinerOptions options;
        options.num_threads = threads;
        auto run =
            MinerRegistry::Global().Create(c.name, options)->Mine(view, c.task);
        ASSERT_TRUE(run.ok()) << c.name;
        const std::string label = std::string("deep/") + c.name + "@" +
                                  std::to_string(threads) + "/" +
                                  IntersectKernelName(kernel);
        ExpectIdentical(run.value(), baseline.value(), label);
        EXPECT_EQ(run->counters().candidates_generated,
                  baseline->counters().candidates_generated)
            << label;
        EXPECT_EQ(run->counters().database_scans,
                  baseline->counters().database_scans)
            << label;
      }
    }
  }
}

/// A staircase database with one dominant chain: transaction t holds
/// items 0..(t mod kChainLen), so the least-frequent chain items carry
/// the deepest conditional subtrees — the one-whale-subtree shape that
/// serialized under PR 4's per-top-level-rank scheme and that the
/// recursive split (PR 7) decomposes. Probabilities cycle through a
/// small set of values so UFP-tree nodes share only sometimes, keeping
/// the conditional trees large.
UncertainDatabase MakeDominantChainDatabase(std::size_t num_transactions,
                                            std::size_t chain_len) {
  std::vector<Transaction> txns;
  txns.reserve(num_transactions);
  for (std::size_t t = 0; t < num_transactions; ++t) {
    std::vector<ProbItem> units;
    const std::size_t len = 1 + (t % chain_len);
    for (std::size_t i = 0; i < len; ++i) {
      ProbItem unit;
      unit.item = static_cast<ItemId>(i);
      unit.prob = 0.5 + 0.05 * static_cast<double>((t + 3 * i) % 8);
      units.push_back(unit);
    }
    txns.push_back(Transaction(std::move(units)));
  }
  return UncertainDatabase(std::move(txns));
}

/// The split matrix: on an input where its fixed split rule fires,
/// every pattern-growth miner must be bit-identical to its serial scalar
/// baseline across {1,2,8} threads × {scalar, gallop, simd} — results
/// and counters both, since splitting may only change *where* a subtree
/// is mined, never what is evaluated. Each split runs one nested
/// ParallelFor, which polls the run context once on exit, so the
/// multi-thread runs must also poll more often than the serial run:
/// that proves the nested loops really ran.
TEST(ParallelEquivalenceTest, PatternGrowthSplitBudgetsOnDominantRank) {
  const UncertainDatabase chain = MakeDominantChainDatabase(320, 16);
  // UFP-growth shares nodes on the chain, so its conditional trees stay
  // below the 128-node split floor; continuous probabilities share no
  // node and give it trees large enough to split.
  const UncertainDatabase random = MakeRandomDatabase({.seed = 85,
                                                       .num_transactions = 400,
                                                       .num_items = 14,
                                                       .item_presence = 0.45,
                                                       .min_prob = 0.3});
  struct Case {
    const char* name;
    const UncertainDatabase* db;
    MiningTask task;
  };
  ExpectedSupportParams esup_params;
  esup_params.min_esup = 0.05;
  ProbabilisticParams prob_params;
  prob_params.min_sup = 0.08;
  prob_params.pft = 0.5;
  const Case cases[] = {
      {"UFP-growth", &random, esup_params},
      {"UH-Mine", &chain, esup_params},
      {"NDUH-Mine", &chain, prob_params},
  };
  for (const Case& c : cases) {
    FlatView view(*c.db);
    auto mine_counted = [&](std::size_t threads,
                            Result<MiningResult>* out) -> std::uint64_t {
      MinerOptions options;
      options.num_threads = threads;
      const RunContext ctx = options.run_context;
      std::unique_ptr<Miner> miner =
          MinerRegistry::Global().Create(c.name, options);
      return CountCheckpoints(ctx, [&] { *out = miner->Mine(view, c.task); });
    };
    Result<MiningResult> baseline = Status::Internal("not run");
    std::uint64_t serial_polls = 0;
    {
      ScopedKernel forced(IntersectKernel::kScalar);
      serial_polls = mine_counted(1, &baseline);
    }
    ASSERT_TRUE(baseline.ok()) << c.name;
    ASSERT_GT(baseline->size(), 50u)
        << c.name << ": database not deep enough to be meaningful";
    for (const IntersectKernel kernel : kKernels) {
      ScopedKernel forced(kernel);
      for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
        Result<MiningResult> run = Status::Internal("not run");
        const std::uint64_t polls = mine_counted(threads, &run);
        ASSERT_TRUE(run.ok()) << c.name;
        const std::string label = std::string("split/") + c.name + "@" +
                                  std::to_string(threads) + "/" +
                                  IntersectKernelName(kernel);
        ExpectIdentical(run.value(), baseline.value(), label);
        EXPECT_EQ(run->counters().candidates_generated,
                  baseline->counters().candidates_generated)
            << label;
        EXPECT_EQ(run->counters().database_scans,
                  baseline->counters().database_scans)
            << label;
        if (threads == 1) {
          EXPECT_EQ(polls, serial_polls) << label;
        } else {
          EXPECT_GT(polls, serial_polls) << label << ": no subtree split";
        }
      }
    }
  }
}

/// The UH-Struct engine's mining scratch (moment accumulators + slot
/// map) is task-local since PR 4 and `Mine` is const: one engine may
/// serve concurrent Mine calls — each itself multi-threaded — without
/// interference. TSan runs this suite in CI.
TEST(ParallelEquivalenceTest, UHStructEngineScratchIsolationUnderConcurrency) {
  const UncertainDatabase db = MakeRandomDatabase(
      {.seed = 58, .num_transactions = 120, .num_items = 12});
  FlatView view(db);
  const double threshold = 0.1 * static_cast<double>(view.num_transactions());
  UHStructEngine::Hooks hooks;
  hooks.is_frequent = [threshold](double esup, double) {
    return esup >= threshold;
  };
  const UHStructEngine engine(view, std::move(hooks));

  MiningCounters baseline_counters;
  const std::vector<FrequentItemset> baseline =
      engine.Mine(&baseline_counters, /*num_threads=*/1);
  ASSERT_GT(baseline.size(), 10u);

  constexpr std::size_t kCallers = 4;
  std::vector<std::vector<FrequentItemset>> found(kCallers);
  std::vector<MiningCounters> counters(kCallers);
  {
    std::vector<std::thread> callers;
    for (std::size_t i = 0; i < kCallers; ++i) {
      callers.emplace_back([&, i] {
        // Odd callers mine multi-threaded, even ones sequentially —
        // both shapes must coexist on one shared engine.
        found[i] = engine.Mine(&counters[i], /*num_threads=*/i % 2 == 0 ? 1 : 8);
      });
    }
    for (std::thread& t : callers) t.join();
  }
  for (std::size_t i = 0; i < kCallers; ++i) {
    ASSERT_EQ(found[i].size(), baseline.size()) << "caller " << i;
    for (std::size_t j = 0; j < baseline.size(); ++j) {
      EXPECT_EQ(found[i][j].itemset, baseline[j].itemset);
      EXPECT_EQ(found[i][j].expected_support, baseline[j].expected_support);
      EXPECT_EQ(found[i][j].variance, baseline[j].variance);
    }
    EXPECT_EQ(counters[i].candidates_generated,
              baseline_counters.candidates_generated);
  }
}

TEST(ParallelEquivalenceTest, EvaluateCandidatesExactAcrossThreadCounts) {
  // Kernel-level check over many candidates and few, on a view of more
  // than 512 transactions. Each candidate's moments must not depend on
  // the batch it is evaluated in: a pair evaluated alone equals its
  // entry in the full pair batch, bit for bit.
  UncertainDatabase db = MakeRandomDatabase(
      {.seed = 54, .num_transactions = 600, .num_items = 12});
  FlatView view(db);
  std::vector<Itemset> frequent;
  for (ItemId i = 0; i < 12; ++i) frequent.push_back(Itemset{i});
  std::vector<Itemset> pairs = GenerateCandidates(frequent, nullptr);
  std::vector<Itemset> few(pairs.begin(), pairs.begin() + 5);

  for (const std::vector<Itemset>* cands : {&pairs, &few}) {
    std::vector<CandidateStats> baseline;
    {
      ScopedKernel forced(IntersectKernel::kScalar);
      baseline = EvaluateCandidates(view, *cands, /*collect_probs=*/true,
                                    /*decremental_threshold=*/-1.0,
                                    /*num_threads=*/1);
    }
    for (const IntersectKernel kernel : kKernels) {
      ScopedKernel forced(kernel);
      for (std::size_t threads : {std::size_t{1}, kThreadCounts[0],
                                  kThreadCounts[1]}) {
        auto run = EvaluateCandidates(view, *cands, /*collect_probs=*/true,
                                      /*decremental_threshold=*/-1.0, threads);
        ASSERT_EQ(run.size(), baseline.size());
        for (std::size_t c = 0; c < baseline.size(); ++c) {
          EXPECT_EQ(run[c].esup, baseline[c].esup)
              << (*cands)[c].ToString() << " @" << threads << "/"
              << IntersectKernelName(kernel);
          EXPECT_EQ(run[c].sq_sum, baseline[c].sq_sum);
          ASSERT_EQ(run[c].probs.size(), baseline[c].probs.size());
          for (std::size_t i = 0; i < baseline[c].probs.size(); ++i) {
            EXPECT_EQ(run[c].probs[i], baseline[c].probs[i]);
          }
        }
      }
    }
  }

  const std::vector<CandidateStats> batch =
      EvaluateCandidates(view, pairs, /*collect_probs=*/false);
  for (std::size_t c = 0; c < pairs.size(); ++c) {
    const std::vector<CandidateStats> alone =
        EvaluateCandidates(view, {pairs[c]}, /*collect_probs=*/false);
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(alone[0].esup, batch[c].esup) << pairs[c].ToString();
    EXPECT_EQ(alone[0].sq_sum, batch[c].sq_sum) << pairs[c].ToString();
  }
}

TEST(ParallelEquivalenceTest, PairLevelMatchesPostingJoin) {
  // The Apriori family counts level 2 in one triangular pass over
  // rank-projected rows, not by joining each pair. Every reported pair
  // must carry exactly the moments its posting join gives on the same
  // view — a full view, a slice that starts past tid 0, and a streaming
  // view with a live delta tail — and results and counters must not
  // depend on the thread count.
  const UncertainDatabase db = MakeRandomDatabase({.seed = 57,
                                                   .num_transactions = 1500,
                                                   .num_items = 14,
                                                   .item_presence = 0.45});
  const FlatView full(db);
  const std::vector<Transaction>& txns = db.transactions();
  const std::vector<Transaction> head(txns.begin(), txns.begin() + 1100);
  const std::vector<Transaction> tail(txns.begin() + 1100, txns.end());
  CompactionPolicy policy;
  policy.max_delta_ratio = 1.0;  // keep the appended tail as a delta
  StreamingFlatView stream(UncertainDatabase(head), policy);
  stream.AssertSoleWriter();  // single-threaded setup
  stream.Append(FlatView(tail));
  ASSERT_TRUE(stream.has_delta());
  const StreamingSnapshot snapshot = stream.Snapshot();

  struct NamedView {
    const char* name;
    FlatView view;
  };
  const NamedView views[] = {{"full", full},
                             {"slice", full.Slice(200, 1300)},
                             {"delta", snapshot.view()}};

  ExpectedSupportParams esup;
  esup.min_esup = 0.05;
  ProbabilisticParams prob;
  prob.min_sup = 0.05;
  prob.pft = 0.7;
  struct Config {
    const char* algorithm;
    bool decremental;
    MiningTask task;
  };
  const Config configs[] = {{"UApriori", true, esup},
                            {"UApriori", false, esup},
                            {"PDUApriori", true, prob},
                            {"NDUApriori", true, prob}};

  for (const NamedView& nv : views) {
    for (const Config& config : configs) {
      Result<MiningResult> baseline = Status::Internal("not run");
      for (std::size_t threads : {std::size_t{1}, kThreadCounts[0],
                                  kThreadCounts[1]}) {
        MinerOptions options;
        options.num_threads = threads;
        options.decremental_pruning = config.decremental;
        Result<MiningResult> run = MinerRegistry::Global()
                                       .Create(config.algorithm, options)
                                       ->Mine(nv.view, config.task);
        const std::string label =
            std::string(nv.name) + "/" + config.algorithm +
            (config.decremental ? "" : "/no-decremental") + "@" +
            std::to_string(threads);
        ASSERT_TRUE(run.ok()) << label << ": " << run.status().ToString();
        std::size_t pairs = 0;
        for (std::size_t i = 0; i < run->size(); ++i) {
          const FrequentItemset& fi = (*run)[i];
          if (fi.itemset.size() != 2) continue;
          ++pairs;
          const CandidateStats join = EvaluateCandidates(
              nv.view, {fi.itemset}, /*collect_probs=*/false)[0];
          EXPECT_EQ(fi.expected_support, join.esup)
              << label << " " << fi.itemset.ToString();
          EXPECT_EQ(fi.variance, join.esup - join.sq_sum)
              << label << " " << fi.itemset.ToString();
        }
        EXPECT_GT(pairs, 0u) << label;
        if (threads == 1) {
          baseline = std::move(run);
          continue;
        }
        ExpectIdentical(run.value(), baseline.value(), label);
        const MiningCounters& got = run->counters();
        const MiningCounters& want = baseline->counters();
        EXPECT_EQ(got.candidates_generated, want.candidates_generated) << label;
        EXPECT_EQ(got.candidates_pruned_apriori, want.candidates_pruned_apriori)
            << label;
        EXPECT_EQ(got.database_scans, want.database_scans) << label;
      }
    }
  }
}

TEST(ParallelEquivalenceTest, JoinKernelsMatchRowScanBaseline) {
  // End-to-end parity of the batch join path against a row-by-row scan
  // of the database (UncertainDatabase::ContainmentProbabilities), under
  // every forced kernel: same candidates, near-equal moments (the two
  // paths multiply members in different orders, so equality is to
  // rounding), identical match sets.
  UncertainDatabase db = MakeRandomDatabase(
      {.seed = 56, .num_transactions = 400, .num_items = 10});
  FlatView view(db);
  std::vector<Itemset> frequent;
  for (ItemId i = 0; i < 10; ++i) frequent.push_back(Itemset{i});
  std::vector<Itemset> pairs = GenerateCandidates(frequent, nullptr);
  std::vector<Itemset> triples = GenerateCandidates(pairs, nullptr);
  std::vector<Itemset> cands = pairs;
  cands.insert(cands.end(), triples.begin(), triples.end());

  std::vector<CandidateStats> rows(cands.size());
  for (std::size_t c = 0; c < cands.size(); ++c) {
    rows[c].probs = db.ContainmentProbabilities(cands[c]);
    for (double p : rows[c].probs) {
      rows[c].esup += p;
      rows[c].sq_sum += p * p;
    }
  }
  for (const IntersectKernel kernel : kKernels) {
    ScopedKernel forced(kernel);
    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const auto joined = EvaluateCandidates(view, cands,
                                             /*collect_probs=*/true,
                                             /*decremental_threshold=*/-1.0,
                                             threads);
      ASSERT_EQ(joined.size(), rows.size());
      for (std::size_t c = 0; c < rows.size(); ++c) {
        const std::string label = cands[c].ToString() + " @" +
                                  std::to_string(threads) + "/" +
                                  IntersectKernelName(kernel);
        EXPECT_NEAR(joined[c].esup, rows[c].esup, 1e-9) << label;
        EXPECT_NEAR(joined[c].sq_sum, rows[c].sq_sum, 1e-9) << label;
        ASSERT_EQ(joined[c].probs.size(), rows[c].probs.size()) << label;
        for (std::size_t i = 0; i < rows[c].probs.size(); ++i) {
          EXPECT_NEAR(joined[c].probs[i], rows[c].probs[i], 1e-12) << label;
        }
      }
    }
  }
}

TEST(ParallelEquivalenceTest, DecrementalPruningKeepsFrequentOnesExact) {
  // With decremental pruning on, candidates that reach the threshold
  // must still be exact, and every candidate — abandoned (infrequent)
  // ones and their partial sums included — must be bit-identical at
  // every thread count and under every kernel. Items 0-3 are dense, the
  // rest sparse, so dense pairs are frequent and pairs with a sparse
  // member are abandoned late in the scan.
  Rng rng(55);
  std::vector<Transaction> txns;
  for (std::size_t t = 0; t < 5200; ++t) {
    std::vector<ProbItem> units;
    for (ItemId i = 0; i < 10; ++i) {
      if (rng.Bernoulli(i < 4 ? 0.9 : 0.2)) {
        units.push_back(ProbItem{i, rng.Uniform(0.05, 1.0)});
      }
    }
    txns.emplace_back(std::move(units));
  }
  FlatView view{UncertainDatabase(std::move(txns))};
  std::vector<Itemset> frequent;
  for (ItemId i = 0; i < 10; ++i) frequent.push_back(Itemset{i});
  std::vector<Itemset> pairs = GenerateCandidates(frequent, nullptr);

  const double threshold = 0.15 * static_cast<double>(view.num_transactions());
  auto full = EvaluateCandidates(view, pairs, /*collect_probs=*/false,
                                 /*decremental_threshold=*/-1.0, 1);
  std::vector<CandidateStats> baseline;
  {
    ScopedKernel forced(IntersectKernel::kScalar);
    baseline = EvaluateCandidates(view, pairs, /*collect_probs=*/false,
                                  threshold, 1);
  }
  std::size_t frequent_pairs = 0;
  for (std::size_t c = 0; c < full.size(); ++c) {
    frequent_pairs += full[c].esup >= threshold;
  }
  EXPECT_GT(frequent_pairs, 0u);
  EXPECT_LT(frequent_pairs, full.size());
  for (const IntersectKernel kernel : kKernels) {
    ScopedKernel forced(kernel);
    for (std::size_t threads : {1u, 2u, 8u}) {
      auto pruned = EvaluateCandidates(view, pairs, /*collect_probs=*/false,
                                       threshold, threads);
      ASSERT_EQ(pruned.size(), full.size());
      for (std::size_t c = 0; c < full.size(); ++c) {
        const std::string label = pairs[c].ToString() + " @" +
                                  std::to_string(threads) + "/" +
                                  IntersectKernelName(kernel);
        EXPECT_EQ(pruned[c].esup, baseline[c].esup) << label;
        EXPECT_EQ(pruned[c].sq_sum, baseline[c].sq_sum) << label;
        if (full[c].esup >= threshold) {
          EXPECT_EQ(pruned[c].esup, full[c].esup) << label;
        } else {
          EXPECT_LE(pruned[c].esup, full[c].esup + 1e-9) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ufim
