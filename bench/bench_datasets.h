#ifndef UFIM_BENCH_BENCH_DATASETS_H_
#define UFIM_BENCH_BENCH_DATASETS_H_

#include <cstddef>

#include "core/uncertain_database.h"

namespace ufim::bench {

/// Scaled instances of the paper's five benchmark datasets (Table 6) with
/// the Table 7 probability parameters. Transaction counts are cut to
/// 500-32000, one to two orders of magnitude below the paper's (e.g. the
/// Quest family sweeps 2k-32k where the paper sweeps 20k-320k), so that a
/// whole figure sweep runs in seconds on one core. Basket shapes follow
/// gen/benchmark_datasets.h (Kosarak's item universe is cut to 4096
/// items there). The four named families memoize one instance per
/// requested size so that bench binaries pay generation cost once.

/// Connect: dense, Gaussian(0.95, 0.05).
const UncertainDatabase& ConnectDb(std::size_t n = 2000);

/// Accident: dense-ish, Gaussian(0.5, 0.5).
const UncertainDatabase& AccidentDb(std::size_t n = 3000);

/// Kosarak: sparse, Gaussian(0.5, 0.5).
const UncertainDatabase& KosarakDb(std::size_t n = 10000);

/// Gazelle: very sparse, Gaussian(0.95, 0.05).
const UncertainDatabase& GazelleDb(std::size_t n = 5000);

/// T25I15D{n}: the Quest scalability family, Gaussian(0.9, 0.1).
/// Not memoized (callers sweep n); build once per size and reuse.
UncertainDatabase QuestDb(std::size_t n);

/// Dense dataset with Zipf-assigned probabilities at the given skew
/// (the Figure 4/5/6 (k),(l) workload).
UncertainDatabase ZipfDenseDb(double skew, std::size_t n = 1500);

/// Skewed one-dominant-rank dataset: transaction t holds the chain
/// items 0..(t mod chain_len), so the least-frequent chain items carry
/// the deepest conditional subtrees — under per-top-level-rank
/// parallelism one task mines nearly everything while the rest idle,
/// the straggler shape the pattern-growth miners' nested split
/// decomposes.
/// Probabilities cycle a small value set deterministically.
const UncertainDatabase& DominantChainDb(std::size_t n = 6000,
                                         std::size_t chain_len = 24);

}  // namespace ufim::bench

#endif  // UFIM_BENCH_BENCH_DATASETS_H_
