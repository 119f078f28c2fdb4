#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ufim {

std::size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace {

/// The lowest-index failure among bodies that run concurrently: one
/// mutex-guarded (index, exception) pair, so the exception rethrown
/// never depends on which failure happened first in real time.
class FirstError {
 public:
  void Record(std::size_t index, std::exception_ptr error) {
    MutexLock lock(mu_);
    if (index < index_) {
      index_ = index;
      error_ = std::move(error);
    }
  }

  /// The recorded exception, or nullptr.
  std::exception_ptr Take() {
    MutexLock lock(mu_);
    return std::exchange(error_, nullptr);
  }

 private:
  Mutex mu_;
  std::size_t index_ UFIM_GUARDED_BY(mu_) = static_cast<std::size_t>(-1);
  std::exception_ptr error_ UFIM_GUARDED_BY(mu_);
};

/// The shared state of one multi-worker ParallelFor call. It lives on
/// the heap, owned jointly by the call and by every help token posted
/// for it, because a token may be popped long after the call returned.
///
/// The protocol that keeps such a late token off the caller's stack:
/// `body` and `context` point into the caller's frame, and a helper
/// touches them only between registering (`Help`, under `mu`, refused
/// once `closed`) and deregistering. The caller drains the loop as
/// worker 0, then `Close`s it — after which no helper registers — and
/// waits until every registered helper has deregistered.
class Loop {
 public:
  Loop(std::size_t n, std::size_t workers,
       const std::function<void(std::size_t, std::size_t)>& body,
       const RunContext* context)
      : n_(n), workers_(workers), body_(&body), context_(context) {}

  /// Claims and runs indices until the cursor passes n or the context
  /// trips. Never throws: body failures go to `errors`.
  void Drain(std::size_t worker) {
    for (;;) {
      // Stop claiming work once the token trips; the index in flight
      // drains via its own body checkpoints.
      if (context_ != nullptr && context_->aborted()) return;
      const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n_) return;
      try {
        (*body_)(i, worker);
      } catch (...) {
        errors.Record(i, std::current_exception());
      }
    }
  }

  /// A help token's work: joins as the next free worker id and drains,
  /// unless the loop is closed or every worker id is taken.
  void Help() {
    std::size_t worker = 0;
    {
      MutexLock lock(mu_);
      if (closed_ || next_worker_ == workers_) return;
      worker = next_worker_++;
      ++active_;
    }
    Drain(worker);
    MutexLock lock(mu_);
    if (--active_ == 0 && closed_) helpers_done_.notify_all();
  }

  /// Caller only, after its own Drain: refuses further helpers and
  /// waits for the registered ones to finish their last index.
  void Close() {
    MutexLock lock(mu_);
    closed_ = true;
    // Plain wait loop: the thread-safety analysis cannot see guarded
    // reads inside a predicate lambda.
    while (active_ != 0) helpers_done_.wait(lock.native_lock());
  }

  FirstError errors;

 private:
  const std::size_t n_;
  const std::size_t workers_;
  const std::function<void(std::size_t, std::size_t)>* const body_;
  const RunContext* const context_;
  std::atomic<std::size_t> cursor_{0};

  Mutex mu_;
  std::condition_variable helpers_done_;
  std::size_t next_worker_ UFIM_GUARDED_BY(mu_) = 1;  ///< 0 is the caller
  std::size_t active_ UFIM_GUARDED_BY(mu_) = 0;
  bool closed_ UFIM_GUARDED_BY(mu_) = false;
};

/// The pool behind `ThreadPool::Global()`. Its workers sleep on one
/// condition variable until a loop posts help tokens, then help that
/// loop until it runs dry.
///
/// Thread-safety contract (annotated, not just documented): `mu_`
/// guards the token queue — every touch of `tokens_` must hold `mu_`,
/// and the `-Wthread-safety` CI leg proves it. The sleep protocol is the
/// classic monitor: producers push under `mu_` then notify `cv_`;
/// workers re-check `tokens_.empty()` in a plain `while` loop under
/// `mu_` (not the predicate overload — the analysis cannot see into a
/// predicate lambda).
class HelperPool final : public ThreadPool {
 public:
  explicit HelperPool(std::size_t num_threads) {
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Asks up to `count` idle workers to help `loop`. A token popped
  /// after the loop closed is dropped unread.
  void PostHelpTokens(const std::shared_ptr<Loop>& loop, std::size_t count) {
    {
      MutexLock lock(mu_);
      tokens_.insert(tokens_.end(), count, loop);
    }
    for (std::size_t i = 0; i < count; ++i) cv_.notify_one();
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::shared_ptr<Loop> loop;
      {
        MutexLock lock(mu_);
        while (tokens_.empty()) cv_.wait(lock.native_lock());
        loop = std::move(tokens_.front());
        tokens_.pop_front();
      }
      loop->Help();
    }
  }

  Mutex mu_;
  std::deque<std::shared_ptr<Loop>> tokens_ UFIM_GUARDED_BY(mu_);
  std::condition_variable cv_;
  /// Never joined: the pool is never destroyed (see Pool()), so its
  /// workers run until the process exits.
  std::vector<std::thread> workers_;
};

HelperPool& Pool() {
  // Leaked on purpose: worker threads must outlive every static whose
  // destructor might still run a loop, and process exit reclaims them.
  static HelperPool* pool = new HelperPool(HardwareThreads());
  return *pool;
}

}  // namespace

ThreadPool& ThreadPool::Global() { return Pool(); }

std::size_t ParallelWorkerCount(std::size_t n, std::size_t num_threads) {
  if (num_threads == 0) num_threads = HardwareThreads();
  return std::min(num_threads, n);
}

void ParallelFor(
    std::size_t n, std::size_t num_threads,
    const std::function<void(std::size_t, std::size_t)>& body,
    const RunContext* context) {
  const std::size_t workers = ParallelWorkerCount(n, num_threads);
  auto loop = std::make_shared<Loop>(n, workers, body, context);
  if (workers > 1) {
    try {
      Pool().PostHelpTokens(loop, workers - 1);
    } catch (...) {
      // A failed post ranks after every body failure; the caller's
      // drain below still attempts every index.
      loop->errors.Record(n, std::current_exception());
    }
  }
  loop->Drain(0);
  loop->Close();
  if (std::exception_ptr error = loop->errors.Take()) {
    std::rethrow_exception(error);
  }
  // Unclaimed indices after a trip must surface as an abort, never as a
  // silently-shortened loop.
  PollRunContext(context);
}

}  // namespace ufim
