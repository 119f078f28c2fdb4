#ifndef UFIM_COMMON_THREAD_ANNOTATIONS_H_
#define UFIM_COMMON_THREAD_ANNOTATIONS_H_

/// Clang Thread Safety Analysis attribute macros.
///
/// These wrap the `capability`-based attributes so the concurrency
/// contracts otherwise stated only in comments — who may touch the
/// thread pool's token queue, who may reconfigure a `RunContext`, who
/// is allowed to mutate a `StreamingFlatView` — become
/// machine-checked at compile time. The dedicated CI leg builds the
/// tree with `clang++ -Wthread-safety -Werror=thread-safety`; on GCC
/// (and on Clang without the flag) every macro expands to nothing, so
/// the annotations are free documentation everywhere else.
///
/// Two kinds of capability appear in this codebase:
///
///  * **Mutexes** (`common/mutex.h`): the classic `GUARDED_BY(mu_)` /
///    lock-held analysis. `std::mutex` in libstdc++ carries no
///    annotations, so annotated code must use `ufim::Mutex` (enforced
///    by `ufim_lint`'s raw-mutex rule).
///
///  * **Roles**: lock-free or externally-synchronized protocols where
///    "holding the capability" means "being the one thread the
///    protocol designates" — the streaming writer, the quiescent
///    RunContext controller. Roles have no runtime representation; a
///    caller claims one through an `ASSERT_CAPABILITY` helper (e.g.
///    `AssertQuiescent()`), which is the
///    annotated equivalent of the prose "caller must be X" contract:
///    the claim point is explicit and greppable, and any call path
///    that reaches a `REQUIRES(role)` method without one fails the
///    thread-safety build.
///
/// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__) && (!defined(SWIG))
#define UFIM_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define UFIM_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

/// Declares a class to be a capability (a lockable, or a pure role).
#define UFIM_CAPABILITY(name) UFIM_THREAD_ANNOTATION_(capability(name))

/// Declares an RAII class that acquires a capability at construction
/// and releases it at destruction.
#define UFIM_SCOPED_CAPABILITY UFIM_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define UFIM_GUARDED_BY(x) UFIM_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x`.
#define UFIM_PT_GUARDED_BY(x) UFIM_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires the listed capabilities exclusively.
#define UFIM_REQUIRES(...) \
  UFIM_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function requires the listed capabilities shared (read-side).
#define UFIM_REQUIRES_SHARED(...) \
  UFIM_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and does not release it.
#define UFIM_ACQUIRE(...) \
  UFIM_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define UFIM_RELEASE(...) \
  UFIM_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function must NOT be called while holding the listed capabilities.
#define UFIM_EXCLUDES(...) UFIM_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Asserts (to the analysis, with no runtime effect) that the calling
/// thread holds the capability — the claim point of role capabilities.
#define UFIM_ASSERT_CAPABILITY(x) \
  UFIM_THREAD_ANNOTATION_(assert_capability(x))

/// Function returns a reference to the capability protecting its result.
#define UFIM_RETURN_CAPABILITY(x) UFIM_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the protocol is beyond the analysis.
#define UFIM_NO_THREAD_SAFETY_ANALYSIS \
  UFIM_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace ufim {

/// A zero-size pure-role capability (see the header comment): a
/// protocol-designated privilege like "quiescent controller" or
/// "streaming writer". Declare a member of this type, name the contract in the
/// template-argument-free way via UFIM_CAPABILITY on the member's
/// wrapper class, and gate privileged methods with
/// UFIM_REQUIRES(role_member_).
/// Copyable and zero-state on purpose: embedding a Role must not change
/// the enclosing class's copy/move semantics (the capability names the
/// *contract*, it is not a runtime token).
class UFIM_CAPABILITY("role") Role {};

}  // namespace ufim

#endif  // UFIM_COMMON_THREAD_ANNOTATIONS_H_
