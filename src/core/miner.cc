#include "core/miner.h"

#include <cmath>

namespace ufim {

Status ExpectedSupportParams::Validate() const {
  if (!(min_esup > 0.0) || min_esup > 1.0) {
    return Status::InvalidArgument("min_esup must be in (0, 1]");
  }
  return Status::OK();
}

Status ProbabilisticParams::Validate() const {
  if (!(min_sup > 0.0) || min_sup > 1.0) {
    return Status::InvalidArgument("min_sup must be in (0, 1]");
  }
  if (pft < 0.0 || pft >= 1.0) {
    return Status::InvalidArgument("pft must be in [0, 1)");
  }
  return Status::OK();
}

std::size_t ProbabilisticParams::MinSupportCount(
    std::size_t num_transactions) const {
  double raw = std::ceil(static_cast<double>(num_transactions) * min_sup);
  std::size_t msc = static_cast<std::size_t>(raw);
  if (msc < 1) msc = 1;
  if (msc > num_transactions) msc = num_transactions;
  return msc;
}

Status TopKParams::Validate() const {
  if (k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  return Status::OK();
}

bool ParsePrefilterMode(std::string_view text, PrefilterMode* mode) {
  if (text == "off") {
    *mode = PrefilterMode::kOff;
    return true;
  }
  if (text == "bounds") {
    *mode = PrefilterMode::kBounds;
    return true;
  }
  return false;
}

std::string_view PrefilterModeName(PrefilterMode mode) {
  return mode == PrefilterMode::kBounds ? "bounds" : "off";
}

std::string_view TaskKindName(const MiningTask& task) {
  if (std::holds_alternative<ExpectedSupportParams>(task)) {
    return "expected-support";
  }
  if (std::holds_alternative<ProbabilisticParams>(task)) {
    return "probabilistic";
  }
  return "top-k";
}

}  // namespace ufim
