#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "algo/uh_struct.h"
#include "common/status.h"
#include "core/flat_view.h"
#include "core/itemset.h"
#include "core/miner.h"
#include "core/mining_result.h"
#include "trace.h"

// Traced replays: each recomputes one job from the library's public
// building blocks, with a span around every call, so the traced run can
// attribute a job's time to layers without instrumenting src/. Every
// replay returns the frequent itemsets it found, which the caller checks
// against the job's own result.

namespace perfbench {

/// UApriori: CollectItemStats, then per level GenerateCandidates and
/// EvaluateCandidates (with decremental pruning, as the registered miner
/// runs). Spans: apriori.items, apriori.gen (count = pruned candidates),
/// apriori.count (count = candidates).
std::vector<ufim::Itemset> ReplayUApriori(const ufim::FlatView& view,
                                          double min_esup,
                                          std::size_t threads, Tracer* tracer,
                                          int job);

/// The exact probabilistic family: DP or DC tails, with (B) or without
/// (NB) the Chernoff screen, and the bound-cascade prefilter on or off.
struct ExactSpec {
  bool dc = false;        ///< DC tails; DP otherwise
  bool chernoff = false;  ///< the "B" variants
  ufim::PrefilterMode prefilter = ufim::PrefilterMode::kOff;
};

/// Spans as ReplayUApriori's, plus prob.screen (count = screened
/// candidates) and prob.tail_dp / prob.tail_dc (count = tails evaluated).
std::vector<ufim::Itemset> ReplayExact(const ufim::FlatView& view,
                                       const ufim::ProbabilisticParams& params,
                                       const ExactSpec& spec,
                                       std::size_t threads, Tracer* tracer,
                                       int job);

/// UH-Mine / NDUH-Mine: the UHStructEngine build and mine, as spans
/// uhstruct.build and uhstruct.mine.
std::vector<ufim::Itemset> ReplayUHStruct(const ufim::FlatView& view,
                                          ufim::UHStructEngine::Hooks hooks,
                                          std::size_t threads, Tracer* tracer,
                                          int job);

/// The level-1 predicates of UH-Mine and NDUH-Mine over `view`.
ufim::UHStructEngine::Hooks UHMineHooks(const ufim::FlatView& view,
                                        double min_esup);
ufim::UHStructEngine::Hooks NDUHMineHooks(
    const ufim::FlatView& view, const ufim::ProbabilisticParams& params);

/// OK when `found` (any order) is exactly the itemset set of `result`.
ufim::Status SameFrequentSet(std::vector<ufim::Itemset> found,
                             const ufim::MiningResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
