#ifndef UFIM_TESTS_TESTING_FLAKY_MINER_H_
#define UFIM_TESTS_TESTING_FLAKY_MINER_H_

#include <atomic>
#include <memory>
#include <string_view>

#include "core/miner_registry.h"

namespace ufim::testing_util {

/// Inner miner for the wrapper tests: a registry UApriori created with
/// `options` that fails calls [fail_from, fail_from + failures) (0-based)
/// and counts every `Mine` call — for pinning that a transiently failing
/// shard mine leaves `DeltaMiner`'s stream untouched and a retry appends
/// the batch once, and for showing that a wrapper stops before it calls
/// its inner miner at all.
class FlakyMiner final : public Miner {
 public:
  FlakyMiner(int fail_from, int failures, const MinerOptions& options = {})
      : fail_from_(fail_from),
        fail_until_(fail_from + failures),
        inner_(MinerRegistry::Global().Create("UApriori", options)) {}
  std::string_view name() const override { return "Flaky"; }
  bool Supports(const MiningTask& task) const override {
    return inner_->Supports(task);
  }
  bool is_exact() const override { return true; }
  Result<MiningResult> Mine(const FlatView& view,
                            const MiningTask& task) const override {
    const int call = calls_++;
    if (call >= fail_from_ && call < fail_until_) {
      return Status::Internal("shard miner down");
    }
    return inner_->Mine(view, task);
  }
  const MinerOptions& options() const override { return inner_->options(); }

  /// `Mine` calls so far, failed ones included.
  int calls() const { return calls_; }

 private:
  int fail_from_;
  int fail_until_;
  mutable std::atomic<int> calls_{0};
  std::unique_ptr<Miner> inner_;
};

}  // namespace ufim::testing_util

#endif  // UFIM_TESTS_TESTING_FLAKY_MINER_H_
