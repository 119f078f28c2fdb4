#ifndef UFIM_TESTS_TESTING_REGISTRY_MINE_H_
#define UFIM_TESTS_TESTING_REGISTRY_MINE_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/miner_registry.h"

namespace ufim::testing_util {

/// Builds the miner `name` with `options` through the registry and runs
/// `task` over `view`; NotFound when no miner has that name.
inline Result<MiningResult> MineWith(std::string_view name,
                                     const FlatView& view,
                                     const MiningTask& task,
                                     const MinerOptions& options = {}) {
  std::unique_ptr<Miner> miner = MinerRegistry::Global().Create(name, options);
  if (miner == nullptr) {
    return Status::NotFound("no miner named '" + std::string(name) + "'");
  }
  return miner->Mine(view, task);
}

}  // namespace ufim::testing_util

#endif  // UFIM_TESTS_TESTING_REGISTRY_MINE_H_
