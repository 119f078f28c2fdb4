#include "replay.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "algo/apriori_framework.h"
#include "prob/bound_cascade.h"
#include "prob/chernoff.h"
#include "prob/normal.h"
#include "prob/poisson_binomial.h"

namespace perfbench {

using ufim::CandidateStats;
using ufim::FlatView;
using ufim::Itemset;

namespace {

/// The level-wise loop shared by the apriori replays. `judge` decides a
/// level's candidates from their counted statistics and returns the
/// indices of the frequent ones.
template <typename Judge>
std::vector<Itemset> LevelWise(const FlatView& view, bool collect_probs,
                               double decremental_threshold,
                               std::size_t threads, Tracer* tracer, int job,
                               Judge&& judge) {
  std::vector<Itemset> level;
  std::vector<CandidateStats> stats;
  {
    ScopedSpan span(tracer, "apriori.items", job);
    for (const ufim::ItemStats& is : ufim::CollectItemStats(view)) {
      level.push_back(Itemset{is.item});
      CandidateStats cs;
      cs.esup = is.esup;
      cs.sq_sum = is.sq_sum;
      if (collect_probs) view.AppendPostingProbs(is.item, cs.probs);
      stats.push_back(std::move(cs));
    }
    span.set_count(level.size());
  }
  std::vector<Itemset> frequent;
  while (true) {
    std::vector<Itemset> next;
    for (std::size_t c : judge(stats)) next.push_back(std::move(level[c]));
    std::sort(next.begin(), next.end());
    frequent.insert(frequent.end(), next.begin(), next.end());
    std::uint64_t pruned = 0;
    {
      ScopedSpan span(tracer, "apriori.gen", job);
      level = ufim::GenerateCandidates(next, &pruned);
      span.set_count(pruned);
    }
    if (level.empty()) break;
    ScopedSpan span(tracer, "apriori.count", job);
    stats = ufim::EvaluateCandidates(view, level, collect_probs,
                                     decremental_threshold, threads);
    span.set_count(level.size());
  }
  return frequent;
}

}  // namespace

std::vector<Itemset> ReplayUApriori(const FlatView& view, double min_esup,
                                    std::size_t threads, Tracer* tracer,
                                    int job) {
  const double threshold =
      min_esup * static_cast<double>(view.num_transactions());
  return LevelWise(view, /*collect_probs=*/false, threshold, threads, tracer,
                   job, [threshold](const std::vector<CandidateStats>& stats) {
                     std::vector<std::size_t> keep;
                     for (std::size_t c = 0; c < stats.size(); ++c) {
                       if (stats[c].esup >= threshold) keep.push_back(c);
                     }
                     return keep;
                   });
}

std::vector<Itemset> ReplayExact(const FlatView& view,
                                 const ufim::ProbabilisticParams& params,
                                 const ExactSpec& spec, std::size_t threads,
                                 Tracer* tracer, int job) {
  const std::size_t msc = params.MinSupportCount(view.num_transactions());
  const double pft = params.pft;
  const bool cascade = spec.prefilter == ufim::PrefilterMode::kBounds;
  // The registered DP early-exits a tail that can no longer exceed pft
  // when the prefilter is on; the replay evaluates tails the same way.
  const double reject_threshold = cascade ? pft : -1.0;
  ufim::DpScratch scratch;
  auto judge = [&](const std::vector<CandidateStats>& stats) {
    std::vector<std::size_t> survivors;
    {
      ScopedSpan span(tracer, "prob.screen", job);
      for (std::size_t c = 0; c < stats.size(); ++c) {
        const double esup = stats[c].esup;
        if (spec.chernoff && ufim::ChernoffCertifiesInfrequent(esup, msc, pft)) {
          continue;
        }
        if (cascade &&
            ufim::ClassifyTail(ufim::CertifiedTailInterval(
                                   esup, esup - stats[c].sq_sum, msc),
                               pft) == ufim::BoundDecision::kReject) {
          continue;
        }
        survivors.push_back(c);
      }
      span.set_count(stats.size());
    }
    std::vector<std::size_t> keep;
    ScopedSpan span(tracer, spec.dc ? "prob.tail_dc" : "prob.tail_dp", job);
    for (std::size_t c : survivors) {
      const double tail =
          spec.dc ? ufim::PoissonBinomialTailDC(stats[c].probs, msc)
                  : ufim::PoissonBinomialTailDP(stats[c].probs, msc,
                                                reject_threshold, scratch);
      if (tail > pft) keep.push_back(c);
    }
    span.set_count(survivors.size());
    return keep;
  };
  return LevelWise(view, /*collect_probs=*/true, -1.0, threads, tracer, job,
                   judge);
}

std::vector<Itemset> ReplayUHStruct(const FlatView& view,
                                    ufim::UHStructEngine::Hooks hooks,
                                    std::size_t threads, Tracer* tracer,
                                    int job) {
  std::optional<ufim::UHStructEngine> engine;
  {
    ScopedSpan span(tracer, "uhstruct.build", job);
    engine.emplace(view, std::move(hooks));
    span.set_count(engine->num_frequent_items());
  }
  std::vector<ufim::FrequentItemset> found;
  {
    ScopedSpan span(tracer, "uhstruct.mine", job);
    found = engine->Mine(nullptr, threads);
    span.set_count(found.size());
  }
  std::vector<Itemset> out;
  out.reserve(found.size());
  for (ufim::FrequentItemset& fi : found) out.push_back(std::move(fi.itemset));
  return out;
}

ufim::UHStructEngine::Hooks UHMineHooks(const FlatView& view,
                                        double min_esup) {
  const double threshold =
      min_esup * static_cast<double>(view.num_transactions());
  ufim::UHStructEngine::Hooks hooks;
  hooks.is_frequent = [threshold](double esup, double) {
    return esup >= threshold;
  };
  return hooks;
}

ufim::UHStructEngine::Hooks NDUHMineHooks(
    const FlatView& view, const ufim::ProbabilisticParams& params) {
  const std::size_t msc = params.MinSupportCount(view.num_transactions());
  const double pft = params.pft;
  ufim::UHStructEngine::Hooks hooks;
  hooks.is_frequent = [msc, pft](double esup, double sq_sum) {
    return ufim::NormalApproxFrequentProbability(esup, esup - sq_sum, msc) >
           pft;
  };
  return hooks;
}

ufim::Status SameFrequentSet(std::vector<Itemset> found,
                             const ufim::MiningResult& result) {
  std::sort(found.begin(), found.end());
  std::vector<Itemset> want = result.ItemsetsOnly();
  if (found == want) return ufim::Status::OK();
  return ufim::Status::Internal(
      "replay found " + std::to_string(found.size()) +
      " frequent itemsets, the job " + std::to_string(want.size()));
}

}  // namespace perfbench
