#ifndef UFIM_TESTS_TESTING_MIXED_PROBS_H_
#define UFIM_TESTS_TESTING_MIXED_PROBS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace ufim::testing_util {

/// n trial probabilities drawn uniformly, with (by a mode drawn first) no
/// exact values, ~10% exact 0s, ~10% exact 1s, or ~10% of each: the
/// inputs on which a tail kernel's zero-skips and saturated bins show.
inline std::vector<double> MixedProbs(Rng& rng, std::size_t n) {
  std::vector<double> probs(n);
  const std::uint64_t mode = rng.UniformInt(0, 3);
  for (double& p : probs) {
    const std::uint64_t roll = rng.UniformInt(0, 9);
    if (mode == 1 && roll == 0) {
      p = 0.0;
    } else if (mode == 2 && roll == 0) {
      p = 1.0;
    } else if (mode == 3 && roll < 2) {
      p = roll == 0 ? 0.0 : 1.0;
    } else {
      p = rng.Uniform01();
    }
  }
  return probs;
}

}  // namespace ufim::testing_util

#endif  // UFIM_TESTS_TESTING_MIXED_PROBS_H_
