#include "eval/experiment.h"

#include <memory>
#include <string>
#include <utility>

#include "core/miner_registry.h"
#include "core/sharded_miner.h"
#include "eval/memory_tracker.h"
#include "eval/stopwatch.h"

namespace ufim {

Result<ExperimentMeasurement> RunExperiment(const Miner& miner,
                                            const FlatView& view,
                                            const MiningTask& task) {
  ScopedPeakMemory mem;
  Stopwatch watch;
  Result<MiningResult> mined = miner.Mine(view, task);
  if (!mined.ok()) return mined.status();
  ExperimentMeasurement m;
  m.millis = watch.ElapsedMillis();
  m.peak_bytes = mem.PeakDeltaBytes();
  m.algorithm = std::string(miner.name());
  m.num_frequent = mined.value().size();
  m.counters = mined.value().counters();
  m.result = std::move(mined).value();
  return m;
}

Result<ExperimentMeasurement> RunRegisteredExperiment(
    std::string_view algorithm, const FlatView& view, const MiningTask& task,
    const MinerOptions& options, std::size_t num_shards) {
  std::unique_ptr<Miner> miner =
      MinerRegistry::Global().Create(algorithm, options);
  if (miner == nullptr) {
    return Status::NotFound("algorithm '" + std::string(algorithm) +
                            "' is not registered");
  }
  if (num_shards > 1) {
    miner = std::make_unique<ShardedMiner>(std::move(miner), num_shards);
  }
  return RunExperiment(*miner, view, task);
}

}  // namespace ufim
