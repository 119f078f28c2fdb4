#include "core/miner_registry.h"

#include <algorithm>
#include <type_traits>

namespace ufim {

namespace {

// Supports() and the entry's family compare variant indices.
static_assert(std::is_same_v<std::variant_alternative_t<0, MiningTask>,
                             ExpectedSupportParams> &&
              std::is_same_v<std::variant_alternative_t<1, MiningTask>,
                             ProbabilisticParams> &&
              std::is_same_v<std::variant_alternative_t<2, MiningTask>,
                             TopKParams>);

/// The one `Miner` implementation: a registry entry bound to the options
/// it was created with. Everything the algorithms share lives here —
/// name and exactness from the entry, the task-family check, params
/// validation, and the abort guard — so a mine function holds only its
/// algorithm.
class RegisteredMiner final : public Miner {
 public:
  RegisteredMiner(const MinerEntry& entry, const MinerOptions& options)
      : entry_(entry), options_(options) {}

  std::string_view name() const override { return entry_.name; }

  bool Supports(const MiningTask& task) const override {
    return task.index() == entry_.mine.index();
  }

  bool is_exact() const override { return entry_.exact; }

  Result<MiningResult> Mine(const FlatView& view,
                            const MiningTask& task) const override {
    return std::visit(
        [&](auto mine, const auto& params) -> Result<MiningResult> {
          if constexpr (std::is_invocable_v<decltype(mine), const FlatView&,
                                            decltype(params),
                                            const MinerOptions&>) {
            UFIM_RETURN_IF_ERROR(params.Validate());
            return internal::GuardMine(
                [&] { return mine(view, params, options_); });
          } else {
            return Status::InvalidArgument(
                entry_.name + " does not support " +
                std::string(TaskKindName(task)) + " tasks");
          }
        },
        entry_.mine, task);
  }

  const MinerOptions& options() const override { return options_; }

 private:
  MinerEntry entry_;
  const MinerOptions options_;
};

}  // namespace

MinerRegistry& MinerRegistry::Global() {
  // Function-local static: constructed on first use, so registrations
  // from other translation units' static initializers are safe.
  static MinerRegistry* registry = new MinerRegistry();
  return *registry;
}

bool MinerRegistry::Register(std::string name, bool exact, bool production,
                             MineFn mine) {
  MinerEntry entry{std::move(name), static_cast<TaskFamily>(mine.index()),
                   exact, production, mine};
  for (MinerEntry& existing : entries_) {
    if (existing.name == entry.name) {
      existing = std::move(entry);
      return true;
    }
  }
  entries_.push_back(std::move(entry));
  return true;
}

const MinerEntry* MinerRegistry::Find(std::string_view name) const {
  for (const MinerEntry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::unique_ptr<Miner> MinerRegistry::Create(std::string_view name,
                                             const MinerOptions& options) const {
  const MinerEntry* entry = Find(name);
  if (entry == nullptr) return nullptr;
  return std::make_unique<RegisteredMiner>(*entry, options);
}

std::vector<std::string> MinerRegistry::Names(bool production_only) const {
  std::vector<std::string> out;
  for (const MinerEntry& entry : entries_) {
    if (production_only && !entry.production) continue;
    out.push_back(entry.name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> MinerRegistry::NamesOf(TaskFamily family,
                                                bool production_only) const {
  std::vector<std::string> out;
  for (const MinerEntry& entry : entries_) {
    if (entry.family != family) continue;
    if (production_only && !entry.production) continue;
    out.push_back(entry.name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ufim
