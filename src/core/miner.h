#ifndef UFIM_CORE_MINER_H_
#define UFIM_CORE_MINER_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <string_view>
#include <variant>

#include "common/result.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/flat_view.h"
#include "core/mining_result.h"

namespace ufim {

/// Parameters for the first problem definition (Definition 2):
/// an itemset X is frequent iff esup(X) >= N * min_esup.
struct ExpectedSupportParams {
  /// Minimum expected support as a ratio of the database size, in (0, 1].
  double min_esup = 0.5;

  /// Checks the parameter ranges.
  Status Validate() const;
};

/// Parameters for the second problem definition (Definition 4):
/// X is frequent iff Pr(sup(X) >= N * min_sup) > pft.
struct ProbabilisticParams {
  /// Minimum support as a ratio of the database size, in (0, 1].
  double min_sup = 0.5;
  /// Probabilistic frequentness threshold, in [0, 1).
  double pft = 0.9;

  Status Validate() const;

  /// The absolute minimum support count msc = ceil(N * min_sup), at
  /// least 1. All probability computations use this integer threshold.
  std::size_t MinSupportCount(std::size_t num_transactions) const;
};

/// Parameters of threshold-free top-k mining: the k itemsets with the
/// highest expected support (no frequency threshold to tune).
struct TopKParams {
  /// Number of itemsets to return, >= 1.
  std::size_t k = 10;

  Status Validate() const;
};

/// One mining request: the paper's two problem definitions plus the
/// threshold-free top-k variant. The unified `Miner` facade dispatches
/// on the active alternative, so drivers (CLI, experiment runner,
/// benches) need a single code path.
using MiningTask =
    std::variant<ExpectedSupportParams, ProbabilisticParams, TopKParams>;

/// "expected-support", "probabilistic" or "top-k" — for diagnostics.
std::string_view TaskKindName(const MiningTask& task);

/// Candidate-level screening applied before the exact tail evaluation of
/// the probabilistic apriori family (DP, DC, MCSampling).
enum class PrefilterMode {
  /// No screening beyond what the algorithm's own definition prescribes.
  kOff,
  /// Two-sided bound cascade (Chernoff + Cantelli + Berry-Esseen-certified
  /// normal envelope): candidates whose certified interval excludes the
  /// pft threshold skip the exact tail. Result sets and reported
  /// probabilities are identical to kOff by construction.
  kBounds,
};

/// Parses "off" / "bounds"; returns false on any other spelling.
bool ParsePrefilterMode(std::string_view text, PrefilterMode* mode);

/// Canonical spelling of a mode ("off", "bounds").
std::string_view PrefilterModeName(PrefilterMode mode);

/// Tuning knobs shared across miners, passed to `MinerRegistry::Create`
/// and from there to every mine function. This is the only place miner
/// defaults live: no algorithm has a constructor or a default of its
/// own. Defaults mirror the optimized configurations the paper's study
/// used.
struct MinerOptions {
  /// Worker threads for the parallel mining paths: 1 (the default) is
  /// the sequential baseline, 0 means all hardware threads. The apriori
  /// family parallelizes candidate counting (and tail evaluations), the
  /// pattern-growth miners (UFP-growth, UH-Mine, NDUH-Mine) their
  /// top-level header ranks, and with more than one thread they split a
  /// dominant subtree into a nested loop under a fixed size rule;
  /// results are bit-identical at every setting (deterministic
  /// partitioning, per-index state, fixed merge orders). TopK and the
  /// brute-force oracles still ignore the knob and run sequentially.
  std::size_t num_threads = 1;
  /// UApriori: enable mid-scan decremental pruning [17, 18] on the
  /// candidate joins of levels k >= 3 (level 2 is one triangular pass
  /// that counts every pair whole). PDUApriori ignores it and always
  /// prunes at its threshold λ*.
  bool decremental_pruning = true;
  /// DC: operand size above which the conquer step uses FFT convolution.
  std::size_t dc_fft_threshold = 64;
  /// MCSampling: possible worlds sampled per candidate.
  std::size_t mc_samples = 1024;
  /// MCSampling: RNG seed (results are deterministic in it).
  std::uint64_t mc_seed = 0xC0FFEE;
  /// Probabilistic apriori family: bound-cascade prefilter (--prefilter).
  PrefilterMode prefilter = PrefilterMode::kOff;
  /// Cooperative cancellation / deadline / memory-budget token, polled at
  /// the miners' checkpoint sites and observed by the execution layer
  /// between tasks. Bound once, at `Create`; a wrapper around the miner
  /// polls the same token. Copies share state: keep a handle to
  /// `Cancel()` or arm limits on while a mine runs. The default is live
  /// but unconstrained.
  RunContext run_context;
};

/// The unified mining interface: every algorithm in the repo — the three
/// expected-support miners, the exact DP/DC family, the approximate
/// probabilistic miners, top-k and the brute-force oracles — is a `Miner`
/// that consumes a columnar `FlatView` and a `MiningTask`. Algorithms are
/// plain functions registered by name; `MinerRegistry::Create` binds one
/// to its `MinerOptions` and is the only way to build it. Wrappers
/// (`ShardedMiner`) implement this interface around such a miner and
/// read their configuration from it.
///
/// A miner is configured once, at construction: nothing re-attaches its
/// options or token afterwards. Implementations are stateless across
/// calls: `Mine` may be invoked repeatedly with different views.
class Miner {
 public:
  virtual ~Miner() = default;

  /// Algorithm name as used in the paper ("UApriori", "DCB", ...).
  virtual std::string_view name() const = 0;

  /// True when this miner can execute the active alternative of `task`.
  virtual bool Supports(const MiningTask& task) const = 0;

  /// True for algorithms whose reported frequentness is exact under the
  /// task they support (all expected-support miners; DP/DC among the
  /// probabilistic ones).
  virtual bool is_exact() const = 0;

  /// Runs the task over a prebuilt columnar view. Returns
  /// InvalidArgument when `Supports(task)` is false; kCancelled /
  /// kDeadlineExceeded / kResourceExhausted when `options().run_context`
  /// trips mid-run (the view, scratch pools, and the thread pool stay
  /// valid and reusable — see common/run_context.h).
  virtual Result<MiningResult> Mine(const FlatView& view,
                                    const MiningTask& task) const = 0;

  /// The options `MinerRegistry::Create` bound this miner to: its thread
  /// count, per-algorithm knobs and the `RunContext` token it polls at
  /// its checkpoint sites. Fixed for the miner's lifetime. Wrappers
  /// (`ShardedMiner`) return their inner miner's, so a wrapper and the
  /// miner it drives share one thread count and one token.
  virtual const MinerOptions& options() const = 0;
};

namespace internal {

/// Facade boundary of the no-exceptions-cross-the-public-API convention:
/// runs `fn` and converts the internal abort unwind (`RunAbortedError`,
/// thrown at RunContext checkpoints) and allocation failure into clean
/// error Statuses. Every registered miner's `Mine` funnels through this
/// (`core/miner_registry.cc`), as do `ShardedMiner` and `DeltaMiner`.
template <typename Fn>
Result<MiningResult> GuardMine(Fn&& fn) {
  try {
    return fn();
  } catch (const RunAbortedError& aborted) {
    return aborted.status();
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("allocation failed during mining");
  }
}

}  // namespace internal

}  // namespace ufim

#endif  // UFIM_CORE_MINER_H_
