#ifndef UFIM_COMMON_THREAD_POOL_H_
#define UFIM_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <memory>

#include "common/run_context.h"

namespace ufim {

/// Number of hardware threads, clamped to at least 1 (the standard
/// permits std::thread::hardware_concurrency() == 0).
std::size_t HardwareThreads();

namespace internal {
class TaskGroupImpl;
}  // namespace internal

/// Handle to the process-wide worker pool, sized to HardwareThreads(),
/// created on first use and kept alive for the process lifetime. Every
/// `TaskGroup` / `ParallelFor` recruits its helpers from it; per-call
/// thread counts cap how many of its workers one call occupies. The pool
/// has no public operations: calling `Global()` only starts the workers
/// early, e.g. before the caller pins itself to one CPU, so the workers
/// keep the whole CPU set. The pool's workers sleep on one condition
/// variable until a group posts a help token; the scheduling machinery
/// is scoped inside groups (see thread_pool.cc).
class ThreadPool {
 public:
  static ThreadPool& Global();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 protected:
  ThreadPool() = default;
  ~ThreadPool() = default;
};

/// A fork-join group of tasks scheduled over the shared pool's
/// work-stealing deques. The owning thread creates the group, spawns
/// tasks (tasks may themselves spawn into the group, or create nested
/// groups of their own — nesting runs parallel, it does not degrade to
/// serial), and blocks in `Wait`, which executes pending tasks itself
/// rather than idling.
///
/// Scheduling: a spawn from a participating thread pushes onto that
/// participant's own deque (LIFO — the child runs next on this thread
/// unless stolen, keeping working sets hot); idle participants steal the
/// *oldest* task of another participant (FIFO — stealing the biggest
/// remaining subtree first under recursive decomposition). Which thread
/// runs which task is scheduling-dependent; determinism is the caller's
/// contract: tasks write only pre-indexed result slots, and the caller
/// merges slots in task-index order after Wait.
///
/// Error contract: a throwing task never cancels the others; Wait runs
/// every spawned task to completion, then rethrows the exception of the
/// lowest-spawn-index failing task.
///
/// Cancellation: when a `RunContext` is attached and trips, participants
/// observe the token *between* tasks — in-flight task bodies drain to
/// completion (they poll their own checkpoints), but not-yet-started tasks
/// are skipped (still accounted, so Wait's bookkeeping is exact). Callers
/// that attach a context must poll it after Wait (`PollRunContext`) so
/// skipped work is never mistaken for completed work.
///
/// A group is not thread-safe for concurrent Spawn/Wait from unrelated
/// threads: Spawn may be called by the owner and from inside the group's
/// own tasks; Wait only by the owner.
class TaskGroup {
 public:
  /// `max_workers` caps how many threads (owner included) participate:
  /// 1 runs every task inline in Wait, 0 means HardwareThreads().
  /// `context`, when non-null, attaches a cancellation token for the
  /// lifetime of the group (the group keeps its own handle copy).
  explicit TaskGroup(std::size_t max_workers = 0,
                     const RunContext* context = nullptr);

  /// Waits (without rethrowing) if Wait was never called.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Registers task `fn` with the next spawn index (0, 1, ...) and makes
  /// it available for execution. Returns the task's index.
  std::size_t Spawn(std::function<void()> fn);

  /// Runs and steals group tasks until every spawned task has completed,
  /// then rethrows the exception of the lowest-index failing task, if
  /// any. May be called repeatedly (spawn / wait phases).
  void Wait();

 private:
  std::shared_ptr<internal::TaskGroupImpl> impl_;
};

/// Number of workers `ParallelFor` uses for a given (n, num_threads):
/// min(num_threads, n), with num_threads == 0 meaning HardwareThreads().
/// Callers size per-worker scratch with this.
std::size_t ParallelWorkerCount(std::size_t n, std::size_t num_threads);

/// Runs body(index, worker) for every index in [0, n). Indices are
/// claimed one at a time from a shared atomic cursor by
/// `ParallelWorkerCount(n, num_threads)` workers; the calling thread is
/// worker 0 and the others are tasks of a TaskGroup, so a worker that
/// draws a heavy index never holds up the rest. Blocks until every
/// claimed index has finished.
///
/// Determinism: every index runs exactly once, whole, on one worker.
/// Which worker runs it, and when, depends on scheduling, so bodies must
/// write only per-index slots and per-worker scratch (`worker` <
/// ParallelWorkerCount(n, num_threads) names a private scratch slot);
/// callers merge per-index results in a fixed order afterwards. Under
/// that discipline results are bit-identical at every thread count.
///
/// num_threads == 0 means HardwareThreads(); with one worker the caller
/// runs every index itself. Nested calls fork real nested groups, each
/// with its own worker-id space.
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
