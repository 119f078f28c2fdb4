// Violating fixture: fans work out through ParallelFor but never polls
// a RunContext (lint path: src/algo/example.cc) — cancellation and
// deadlines cannot stop this miner.
#include <cstddef>

#include "common/thread_pool.h"

void CountAll(std::size_t n) {
  ufim::ParallelFor(n, 4, [](std::size_t /*index*/, std::size_t /*worker*/) {});
}
