#ifndef UFIM_EVAL_EXPERIMENT_H_
#define UFIM_EVAL_EXPERIMENT_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "core/flat_view.h"
#include "core/miner.h"
#include "core/mining_result.h"

namespace ufim {

/// One timed + memory-tracked mining run: the row format shared by every
/// figure-reproduction bench.
struct ExperimentMeasurement {
  std::string algorithm;
  double millis = 0.0;
  std::size_t peak_bytes = 0;  ///< 0 when the alloc hooks are not linked
  std::size_t num_frequent = 0;
  MiningCounters counters;
  MiningResult result;  ///< full result, for accuracy post-processing
};

/// Runs `miner` once on `task` under the stopwatch and the peak-memory
/// scope. FlatView construction is excluded from the timing: callers
/// build the view once per sweep.
Result<ExperimentMeasurement> RunExperiment(const Miner& miner,
                                            const FlatView& view,
                                            const MiningTask& task);

/// Registry-driven variant: instantiates `algorithm` with `options`
/// (the experiment-runner config — num_threads and the per-algorithm
/// knobs) and optionally wraps it in a ShardedMiner (`num_shards > 1`)
/// before running. NotFound for unregistered names. This is the single
/// entry point the CLI and sweep drivers use, so every experiment
/// accepts the same execution configuration.
Result<ExperimentMeasurement> RunRegisteredExperiment(
    std::string_view algorithm, const FlatView& view, const MiningTask& task,
    const MinerOptions& options = {}, std::size_t num_shards = 1);

}  // namespace ufim

#endif  // UFIM_EVAL_EXPERIMENT_H_
