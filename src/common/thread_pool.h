#ifndef UFIM_COMMON_THREAD_POOL_H_
#define UFIM_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>

#include "common/run_context.h"

namespace ufim {

/// Number of hardware threads, clamped to at least 1 (the standard
/// permits std::thread::hardware_concurrency() == 0).
std::size_t HardwareThreads();

/// Handle to the process-wide worker pool, sized to HardwareThreads(),
/// created on first use and kept alive for the process lifetime. Every
/// `ParallelFor` recruits its helpers from it; per-call thread counts
/// cap how many of its workers one call occupies. The pool has no
/// public operations: calling `Global()` only starts the workers early,
/// e.g. before the caller pins itself to one CPU, so the workers keep
/// the whole CPU set. The pool's workers sleep on one condition
/// variable until a loop posts a help token (see thread_pool.cc).
class ThreadPool {
 public:
  static ThreadPool& Global();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 protected:
  ThreadPool() = default;
  ~ThreadPool() = default;
};

/// Number of workers `ParallelFor` uses for a given (n, num_threads):
/// min(num_threads, n), with num_threads == 0 meaning HardwareThreads().
/// Callers size per-worker scratch with this.
std::size_t ParallelWorkerCount(std::size_t n, std::size_t num_threads);

/// Runs body(index, worker) for every index in [0, n). Indices are
/// claimed one at a time from a shared atomic cursor by
/// `ParallelWorkerCount(n, num_threads)` workers; the calling thread is
/// worker 0 and the others are pool threads that answer the call's help
/// tokens, so a worker that draws a heavy index never holds up the rest.
/// Blocks until every claimed index has finished.
///
/// Determinism: every index runs exactly once, whole, on one worker.
/// Which worker runs it, and when, depends on scheduling, so bodies must
/// write only per-index slots and per-worker scratch (`worker` <
/// ParallelWorkerCount(n, num_threads) names a private scratch slot);
/// callers merge per-index results in a fixed order afterwards. Under
/// that discipline results are bit-identical at every thread count.
///
/// num_threads == 0 means HardwareThreads(); with one worker the caller
/// runs every index itself. A body may call ParallelFor again: the
/// nested call recruits its own helpers, with its own worker-id space,
/// and its caller drains it too, so nesting never deadlocks on a busy
/// pool and never degrades to serial while helpers are idle.
///
/// If bodies throw, every index is still attempted and the exception of
/// the lowest failing index is rethrown in the caller.
///
/// When `context` is non-null, workers check it before claiming each
/// index and stop claiming once it trips; the call then unwinds with
/// `RunAbortedError` after the in-flight bodies drain, so a cancelled
/// loop can never be mistaken for a completed one.
void ParallelFor(
    std::size_t n, std::size_t num_threads,
    const std::function<void(std::size_t index, std::size_t worker)>& body,
    const RunContext* context = nullptr);

}  // namespace ufim

#endif  // UFIM_COMMON_THREAD_POOL_H_
