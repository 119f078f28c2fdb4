#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ufim {

namespace {

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

}  // namespace

std::size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace internal {

// ---------------------------------------------------------------------------
// Chase-Lev deque.

/// A Chase-Lev work-stealing deque of task pointers (Le, Pop, Cohen &
/// Nardelli, PPoPP'13 memory orderings). Exactly one thread — the slot
/// owner — may Push/Pop at the bottom (LIFO); any thread may Steal from
/// the top (FIFO). The buffer grows geometrically; retired buffers are
/// kept alive until destruction because a concurrent thief may still be
/// reading one (its CAS on `top_` then decides who owns the element).
///
/// The owner/thief split is machine-checked: `owner_role_` is a pure
/// role capability (see thread_annotations.h), `Push`/`Pop` require it,
/// and the slot-routing code in TaskGroupImpl claims it via
/// `AssertOwner()` exactly where the participation stack proves this
/// thread holds the slot. Calling `Push`/`Pop` from any path without
/// that claim fails the `-Wthread-safety` build; `Steal` is
/// deliberately unannotated — any thread may race for the top end.
class TaskDeque {
 public:
  TaskDeque();
  ~TaskDeque();

  TaskDeque(const TaskDeque&) = delete;
  TaskDeque& operator=(const TaskDeque&) = delete;

  /// Owner only. Pushes onto the bottom, growing the buffer if full.
  void Push(void* task) UFIM_REQUIRES(owner_role_);

  /// Owner only. Pops from the bottom (most recently pushed first);
  /// nullptr when empty.
  void* Pop() UFIM_REQUIRES(owner_role_);

  /// Any thread. Steals from the top (oldest first); nullptr when empty
  /// or when the race for the element was lost (callers just rescan).
  void* Steal();

  /// Claims the owner role to the thread-safety analysis (no runtime
  /// effect). Callers invoke it at the point where the scheduling
  /// protocol designates this thread the slot owner — in this codebase,
  /// where the thread-local participation stack maps the calling thread
  /// to this deque's slot.
  void AssertOwner() const UFIM_ASSERT_CAPABILITY(owner_role_) {}

 private:
  struct Buffer;

  void Grow(std::int64_t top, std::int64_t bottom)
      UFIM_REQUIRES(owner_role_);

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
  /// Superseded buffers, freed only at destruction. Owner-only: guarded
  /// by the owner role, not a lock (thieves never touch this vector).
  std::vector<std::unique_ptr<Buffer>> retired_ UFIM_GUARDED_BY(owner_role_);

  /// The "I am the slot owner" capability; see the class comment.
  Role owner_role_;
};

struct TaskDeque::Buffer {
  explicit Buffer(std::int64_t cap)
      : capacity(cap), slots(new std::atomic<void*>[cap]) {}

  void* Get(std::int64_t i) const {
    return slots[i & (capacity - 1)].load(std::memory_order_relaxed);
  }
  void Put(std::int64_t i, void* task) {
    slots[i & (capacity - 1)].store(task, std::memory_order_relaxed);
  }

  const std::int64_t capacity;  ///< power of two
  std::unique_ptr<std::atomic<void*>[]> slots;
};

TaskDeque::TaskDeque() {
  auto initial = std::make_unique<Buffer>(64);
  buffer_.store(initial.get(), std::memory_order_relaxed);
  retired_.push_back(std::move(initial));
}

TaskDeque::~TaskDeque() = default;

void TaskDeque::Grow(std::int64_t top, std::int64_t bottom) {
  Buffer* old = buffer_.load(std::memory_order_relaxed);
  auto grown = std::make_unique<Buffer>(old->capacity * 2);
  for (std::int64_t i = top; i < bottom; ++i) grown->Put(i, old->Get(i));
  // Thieves may still hold the old buffer pointer; the release store
  // publishes the copied contents, and the old buffer stays alive in
  // retired_ until destruction, so a stale read is merely a read of the
  // same element (the CAS on top_ then decides ownership).
  buffer_.store(grown.get(), std::memory_order_release);
  retired_.push_back(std::move(grown));
}

void TaskDeque::Push(void* task) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  Buffer* a = buffer_.load(std::memory_order_relaxed);
  if (b - t > a->capacity - 1) {
    Grow(t, b);
    a = buffer_.load(std::memory_order_relaxed);
  }
  a->Put(b, task);
  // seq_cst (not just release): Pop's bottom_ decrement and Steal's
  // top_/bottom_ reads reason about a single total order of these
  // stores; operation-level orderings keep the algorithm fence-free.
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

void* TaskDeque::Pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Buffer* a = buffer_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  void* result = nullptr;
  if (t <= b) {
    result = a->Get(b);
    if (t == b) {
      // Last element: race the thieves for it via top_.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        result = nullptr;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
  } else {
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return result;
}

void* TaskDeque::Steal() {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  Buffer* a = buffer_.load(std::memory_order_acquire);
  void* result = a->Get(t);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return nullptr;  // lost the race; the caller rescans
  }
  return result;
}

/// The lowest-index failure among work items that run concurrently:
/// one mutex-guarded (index, exception) pair, so the exception rethrown
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

  /// The recorded exception, or nullptr. Clears the record.
  std::exception_ptr Take() {
    MutexLock lock(mu_);
    index_ = kNone;
    return std::exchange(error_, nullptr);
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  Mutex mu_;
  std::size_t index_ UFIM_GUARDED_BY(mu_) = kNone;
  std::exception_ptr error_ UFIM_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Task groups.

class TaskGroupImpl {
 public:
  struct Task {
    std::function<void()> fn;
    std::size_t index;
  };

  explicit TaskGroupImpl(std::size_t num_slots)
      : num_slots_(num_slots), slot_taken_(num_slots, false) {
    deques_.reserve(num_slots);
    for (std::size_t s = 0; s < num_slots; ++s) {
      deques_.push_back(std::make_unique<TaskDeque>());
    }
  }

  std::size_t num_slots() const { return num_slots_; }

  /// Registers and publishes a task; returns its spawn index. Pushes to
  /// the calling thread's deque when it holds a slot of this group,
  /// otherwise to the mutex-guarded overflow list (spawns from threads
  /// outside the group).
  std::size_t Spawn(std::function<void()> fn);

  /// Owner loop: run/steal group tasks until none are pending. The
  /// short timed wait covers transient steal races; completion of the
  /// last task notifies immediately.
  void WaitAll(std::size_t slot);

  /// Helper loop: run/steal until a full scan finds nothing, then
  /// return (helpers never block — the spawn-side token policy recruits
  /// replacements if more work appears).
  void DrainAsHelper(std::size_t slot);

  std::size_t TryAcquireSlot();
  void ReleaseSlot(std::size_t slot);

  /// Token accounting: true when another helper should be recruited
  /// (engaged count — helpers active plus tokens in flight — is below
  /// num_slots - 1); increments the count when so.
  bool ShouldPostToken();
  void TokenDone() { helpers_engaged_.fetch_sub(1, std::memory_order_acq_rel); }

 private:
  Task* FindWork(std::size_t slot);
  void RunTask(Task* task);

  const std::size_t num_slots_;
  /// Handle copy of the attached cancellation token (nullopt = none); a
  /// copy, not a pointer, so late help-token arrivals can never touch a
  /// dead context. Written once in the TaskGroup constructor, before
  /// any other thread can see the group; read-only afterwards.
  std::optional<RunContext> ctx_;
  std::vector<std::unique_ptr<TaskDeque>> deques_;  ///< one per slot
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_index_{0};
  std::atomic<std::size_t> helpers_engaged_{0};

  /// Guards the slot table and the overflow list — the group's
  /// coarse-grained shared state (the deques are lock-free and carry
  /// their own owner-role annotations).
  Mutex mu_;
  std::condition_variable done_cv_;
  std::vector<bool> slot_taken_ UFIM_GUARDED_BY(mu_);
  std::deque<Task*> overflow_ UFIM_GUARDED_BY(mu_);
  /// The lowest-spawn-index failing task's exception.
  FirstError errors_;

  friend class ::ufim::TaskGroup;
};

namespace {

/// The groups this thread currently participates in (owner or helper),
/// innermost last. Spawn targets the calling thread's deque of the
/// spawned-into group; nesting keeps one entry per active group.
struct Participation {
  TaskGroupImpl* group;
  std::size_t slot;
};
thread_local std::vector<Participation> t_participation;

std::size_t SlotOnThisThread(const TaskGroupImpl* group) {
  for (auto it = t_participation.rbegin(); it != t_participation.rend(); ++it) {
    if (it->group == group) return it->slot;
  }
  return kNoSlot;
}

}  // namespace

std::size_t TaskGroupImpl::Spawn(std::function<void()> fn) {
  const std::size_t index = next_index_.fetch_add(1, std::memory_order_relaxed);
  Task* task = new Task{std::move(fn), index};
  pending_.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t slot = SlotOnThisThread(this);
  if (slot != kNoSlot) {
    // The participation stack just proved this thread holds `slot`, and
    // a slot has exactly one holder — so this thread is the deque owner.
    deques_[slot]->AssertOwner();
    deques_[slot]->Push(task);
  } else {
    MutexLock lock(mu_);
    overflow_.push_back(task);
  }
  return index;
}

TaskGroupImpl::Task* TaskGroupImpl::FindWork(std::size_t slot) {
  // `slot` is the caller's own slot (WaitAll / DrainAsHelper run on the
  // thread that acquired it), so the caller owns this deque's bottom end.
  deques_[slot]->AssertOwner();
  if (void* task = deques_[slot]->Pop()) return static_cast<Task*>(task);
  for (std::size_t i = 1; i < num_slots_; ++i) {
    const std::size_t victim = (slot + i) % num_slots_;
    if (void* task = deques_[victim]->Steal()) return static_cast<Task*>(task);
  }
  MutexLock lock(mu_);
  if (!overflow_.empty()) {
    Task* task = overflow_.front();
    overflow_.pop_front();
    return task;
  }
  return nullptr;
}

void TaskGroupImpl::RunTask(Task* task) {
  try {
    // Observe the cancellation token between tasks: once it trips,
    // not-yet-started tasks are skipped (their accounting below still
    // runs, so WaitAll sees exact completion). In-flight tasks drain via
    // their own body checkpoints.
    if (!ctx_ || !ctx_->aborted()) task->fn();
  } catch (...) {
    errors_.Record(task->index, std::current_exception());
  }
  delete task;
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Serialize with the owner's pending check so the notification can
    // never slip between its re-check and its wait.
    MutexLock lock(mu_);
    done_cv_.notify_all();
  }
}

void TaskGroupImpl::WaitAll(std::size_t slot) {
  for (;;) {
    if (Task* task = FindWork(slot)) {
      RunTask(task);
      continue;
    }
    if (pending_.load(std::memory_order_acquire) == 0) return;
    MutexLock lock(mu_);
    if (pending_.load(std::memory_order_acquire) == 0) return;
    if (!overflow_.empty()) continue;
    // Remaining tasks are running on other threads (their completion
    // notifies) or were hidden by a transient steal race (the timeout
    // rescans).
    done_cv_.wait_for(lock.native_lock(), std::chrono::microseconds(200));
  }
}

void TaskGroupImpl::DrainAsHelper(std::size_t slot) {
  while (Task* task = FindWork(slot)) RunTask(task);
}

std::size_t TaskGroupImpl::TryAcquireSlot() {
  MutexLock lock(mu_);
  // Slot 0 is reserved for the owner.
  for (std::size_t s = 1; s < num_slots_; ++s) {
    if (!slot_taken_[s]) {
      slot_taken_[s] = true;
      return s;
    }
  }
  return kNoSlot;
}

void TaskGroupImpl::ReleaseSlot(std::size_t slot) {
  MutexLock lock(mu_);
  slot_taken_[slot] = false;
}

bool TaskGroupImpl::ShouldPostToken() {
  std::size_t engaged = helpers_engaged_.load(std::memory_order_relaxed);
  while (engaged + 1 < num_slots_) {
    if (helpers_engaged_.compare_exchange_weak(engaged, engaged + 1,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// The worker pool.

/// The pool behind `ThreadPool::Global()`. Its workers sleep on one
/// condition variable until a group posts a help token, then join that
/// group as helpers until it runs dry.
///
/// Thread-safety contract (annotated, not just documented): `mu_`
/// guards the token queue — every touch of `tokens_` must hold `mu_`,
/// and the `-Wthread-safety` CI leg proves it. The sleep protocol is the
/// classic monitor: producers push under `mu_` then notify `cv_`;
/// workers re-check `tokens_.empty()` in a plain `while` loop under
/// `mu_` (not the predicate overload — the analysis cannot see into a
/// predicate lambda). The Chase-Lev deques are *not* guarded by `mu_`;
/// their ownership split is annotated on TaskDeque itself.
class HelperPool final : public ThreadPool {
 public:
  explicit HelperPool(std::size_t num_threads) {
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Asks an idle worker to help drain `group`; no-op when none is idle
  /// by the time the token is popped (the token re-checks).
  void PostHelpToken(std::shared_ptr<TaskGroupImpl> group) {
    {
      MutexLock lock(mu_);
      tokens_.push_back(std::move(group));
    }
    cv_.notify_one();
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::shared_ptr<TaskGroupImpl> group;
      {
        MutexLock lock(mu_);
        // Plain wait loop (not the predicate overload): the thread-safety
        // analysis checks the guarded reads here, in a scope it can see
        // holds mu_ — it cannot look inside a predicate lambda.
        while (tokens_.empty()) cv_.wait(lock.native_lock());
        group = std::move(tokens_.front());
        tokens_.pop_front();
      }
      const std::size_t slot = group->TryAcquireSlot();
      if (slot != kNoSlot) {
        t_participation.push_back({group.get(), slot});
        group->DrainAsHelper(slot);
        t_participation.pop_back();
        group->ReleaseSlot(slot);
      }
      group->TokenDone();
    }
  }

  Mutex mu_;
  std::deque<std::shared_ptr<TaskGroupImpl>> tokens_ UFIM_GUARDED_BY(mu_);
  std::condition_variable cv_;
  /// Never joined: the pool is never destroyed (see Pool()), so its
  /// workers run until the process exits.
  std::vector<std::thread> workers_;
};

HelperPool& Pool() {
  // Leaked on purpose: worker threads must outlive every static whose
  // destructor might still spawn, and process exit reclaims them.
  static HelperPool* pool = new HelperPool(HardwareThreads());
  return *pool;
}

}  // namespace internal

ThreadPool& ThreadPool::Global() { return internal::Pool(); }

// ---------------------------------------------------------------------------
// TaskGroup.

TaskGroup::TaskGroup(std::size_t max_workers, const RunContext* context)
    : impl_(std::make_shared<internal::TaskGroupImpl>(std::max<std::size_t>(
          max_workers == 0 ? HardwareThreads() : max_workers, 1))) {
  if (context != nullptr) impl_->ctx_ = *context;
  {
    MutexLock lock(impl_->mu_);
    impl_->slot_taken_[0] = true;  // the owner occupies slot 0 for life
  }
  internal::t_participation.push_back({impl_.get(), 0});
}

TaskGroup::~TaskGroup() {
  impl_->WaitAll(0);  // never abandon spawned tasks
  (void)impl_->errors_.Take();
  // Groups are scoped fork-join objects, but tolerate out-of-order
  // destruction of siblings by erasing this group's entry wherever it
  // sits on the participation stack.
  auto& stack = internal::t_participation;
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->group == impl_.get()) {
      stack.erase(std::next(it).base());
      break;
    }
  }
  impl_->ReleaseSlot(0);
}

std::size_t TaskGroup::Spawn(std::function<void()> fn) {
  const std::size_t index = impl_->Spawn(std::move(fn));
  if (impl_->num_slots() > 1 && impl_->ShouldPostToken()) {
    try {
      internal::Pool().PostHelpToken(impl_);
    } catch (...) {
      impl_->TokenDone();
      throw;
    }
  }
  return index;
}

void TaskGroup::Wait() {
  impl_->WaitAll(0);
  if (std::exception_ptr error = impl_->errors_.Take()) {
    std::rethrow_exception(error);
  }
}

// ---------------------------------------------------------------------------
// ParallelFor.

std::size_t ParallelWorkerCount(std::size_t n, std::size_t num_threads) {
  if (num_threads == 0) num_threads = HardwareThreads();
  return std::min(num_threads, n);
}

void ParallelFor(
    std::size_t n, std::size_t num_threads,
    const std::function<void(std::size_t, std::size_t)>& body,
    const RunContext* context) {
  std::atomic<std::size_t> cursor{0};
  internal::FirstError first_error;
  auto drain = [&cursor, &first_error, &body, context, n](std::size_t worker) {
    for (;;) {
      // Stop claiming work once the token trips; the index in flight
      // drains via its own body checkpoints.
      if (context != nullptr && context->aborted()) return;
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i, worker);
      } catch (...) {
        first_error.Record(i, std::current_exception());
      }
    }
  };

  const std::size_t workers = ParallelWorkerCount(n, num_threads);
  if (workers <= 1) {
    drain(0);
  } else {
    TaskGroup group(workers, context);
    try {
      for (std::size_t w = 1; w < workers; ++w) {
        group.Spawn([&drain, w] { drain(w); });
      }
    } catch (...) {
      // A failed spawn ranks after every body failure.
      first_error.Record(n, std::current_exception());
    }
    // The caller's drain claims every index no helper takes — including
    // all of them when spawning failed — so every index is attempted.
    drain(0);
    group.Wait();  // drain() never throws
  }
  if (std::exception_ptr error = first_error.Take()) {
    std::rethrow_exception(error);
  }
  // Unclaimed indices after a trip must surface as an abort, never as a
  // silently-shortened loop.
  PollRunContext(context);
}

}  // namespace ufim
