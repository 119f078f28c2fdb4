// Conforming fixture: the fan-out file has a RunContext poll site, so
// the cooperative-cancellation contract reaches it.
#include <cstddef>

#include "common/run_context.h"
#include "common/thread_pool.h"

void CountAll(const ufim::RunContext* ctx, std::size_t n) {
  ufim::PollRunContext(ctx);
  ufim::ParallelFor(n, 4, [](std::size_t /*index*/, std::size_t /*worker*/) {});
}
