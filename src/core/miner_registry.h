#ifndef UFIM_CORE_MINER_REGISTRY_H_
#define UFIM_CORE_MINER_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/miner.h"

namespace ufim {

/// Which task alternative a registered miner answers: the paper's two
/// problem definitions plus threshold-free top-k. Declared in the order
/// of the `MiningTask` alternatives.
enum class TaskFamily {
  kExpectedSupport,
  kProbabilistic,
  kTopK,
};

/// One algorithm: runs over `view` with `params` of its family, already
/// validated, and reads its knobs (threads, prefilter, DC/MC settings,
/// run context) from `options`. It may unwind with RunAbortedError at a
/// checkpoint; the `Miner` that `MinerRegistry::Create` returns converts
/// that into a Status.
template <typename Params>
using MineFnFor = Result<MiningResult> (*)(const FlatView& view,
                                           const Params& params,
                                           const MinerOptions& options);

/// The mine function of an entry, one alternative per `MiningTask`
/// alternative (same order), so the function's params type names its
/// family.
using MineFn = std::variant<MineFnFor<ExpectedSupportParams>,
                            MineFnFor<ProbabilisticParams>,
                            MineFnFor<TopKParams>>;

/// Registration record of one algorithm.
struct MinerEntry {
  std::string name;  ///< canonical name, as the paper spells it
  TaskFamily family = TaskFamily::kExpectedSupport;  ///< from `mine`
  bool exact = true;  ///< frequentness is exact (false: approximations)
  bool production = true;  ///< false for test oracles (brute force)
  MineFn mine;
};

/// Name-keyed registry of all mining algorithms. Algorithms register
/// themselves from their own translation units via UFIM_REGISTER_MINER,
/// so adding a new miner never touches factory code.
class MinerRegistry {
 public:
  /// The process-wide registry.
  static MinerRegistry& Global();

  /// Registers `mine` under `name` (its family follows from the params
  /// type `mine` takes); returns true. Registering a duplicate name is a
  /// programming error and replaces the previous entry (last wins, which
  /// keeps static-init order irrelevant for well-formed code).
  bool Register(std::string name, bool exact, bool production, MineFn mine);

  /// Looks an algorithm up by canonical name; nullptr when unknown.
  [[nodiscard]] const MinerEntry* Find(std::string_view name) const;

  /// The one way to build a miner: binds the algorithm to `options`
  /// (including its run context) for the miner's lifetime; nullptr when
  /// the name is unknown. The miner validates each task's params and
  /// turns an aborted run into a Status.
  [[nodiscard]] std::unique_ptr<Miner> Create(std::string_view name,
                                const MinerOptions& options = {}) const;

  /// All registered names, sorted. `production_only` drops test oracles.
  std::vector<std::string> Names(bool production_only = false) const;

  /// Registered names of one family, sorted; `production_only` likewise.
  std::vector<std::string> NamesOf(TaskFamily family,
                                   bool production_only = false) const;

 private:
  std::vector<MinerEntry> entries_;
};

/// Registers `mine` with the global registry at static-initialization
/// time. Use in the algorithm's .cc, after its mine function:
///
///   Result<MiningResult> MineUApriori(const FlatView& view,
///                                     const ExpectedSupportParams& params,
///                                     const MinerOptions& options);
///   UFIM_REGISTER_MINER("UApriori", /*exact=*/true, /*production=*/true,
///                       MineUApriori)
#define UFIM_REGISTER_MINER(name, exact, production, mine)              \
  namespace {                                                           \
  const bool UFIM_REGISTRY_CONCAT_(ufim_registered_, __LINE__) =        \
      ::ufim::MinerRegistry::Global().Register(name, exact, production, \
                                               mine);                   \
  }
#define UFIM_REGISTRY_CONCAT_(a, b) UFIM_REGISTRY_CONCAT_IMPL_(a, b)
#define UFIM_REGISTRY_CONCAT_IMPL_(a, b) a##b

}  // namespace ufim

#endif  // UFIM_CORE_MINER_REGISTRY_H_
