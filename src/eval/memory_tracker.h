#ifndef UFIM_EVAL_MEMORY_TRACKER_H_
#define UFIM_EVAL_MEMORY_TRACKER_H_

#include <cstddef>

namespace ufim {

/// Process-wide heap accounting — the paper's uniform "memory cost"
/// measure (§4.1 argues that ad-hoc per-implementation measurement made
/// published results incomparable).
///
/// The counters are only driven when the `ufim_alloc_hooks` library
/// (overridden global operator new/delete) is linked into the binary;
/// the bench binaries link it, ordinary library consumers do not.
/// All functions are thread-safe (relaxed atomics) and allocation-free.
namespace memory_tracker {

/// True iff the allocation hooks are present in this binary.
bool HooksInstalled();

/// Bytes currently allocated through tracked new/delete.
std::size_t CurrentBytes();

/// High-water mark since the last ResetPeak().
std::size_t PeakBytes();

/// Sets the peak to the current usage, so a subsequent PeakBytes()
/// reports the high-water mark of the region of interest only.
void ResetPeak();

/// Internal entry points used by the allocation hooks.
void RecordAlloc(std::size_t bytes);
void RecordFree(std::size_t bytes);
void MarkHooksInstalled();

}  // namespace memory_tracker

/// RAII helper: resets the peak on construction, reports the delta-peak
/// (bytes above the starting level) on request.
class ScopedPeakMemory {
 public:
  ScopedPeakMemory();

  /// Peak bytes allocated above the construction-time level; 0 when the
  /// hooks are not linked.
  std::size_t PeakDeltaBytes() const;

 private:
  std::size_t baseline_;
};

}  // namespace ufim

#endif  // UFIM_EVAL_MEMORY_TRACKER_H_
