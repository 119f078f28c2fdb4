#include "eval/memory_tracker.h"

#include <atomic>

namespace ufim {
namespace memory_tracker {

namespace {
// Plain atomics with constant initialization (trivially destructible, per
// the style rules for objects with static storage duration).
std::atomic<std::size_t> g_current{0};
std::atomic<std::size_t> g_peak{0};
std::atomic<bool> g_hooks{false};
}  // namespace

bool HooksInstalled() { return g_hooks.load(std::memory_order_relaxed); }

std::size_t CurrentBytes() { return g_current.load(std::memory_order_relaxed); }

std::size_t PeakBytes() { return g_peak.load(std::memory_order_relaxed); }

void ResetPeak() {
  g_peak.store(g_current.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

void RecordAlloc(std::size_t bytes) {
  const std::size_t now =
      g_current.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  // Every increase of g_current returns its new value here, and the CAS
  // loop only ever raises g_peak, so concurrent allocating threads still
  // record the counter's exact high-water mark.
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void RecordFree(std::size_t bytes) {
  g_current.fetch_sub(bytes, std::memory_order_relaxed);
}

void MarkHooksInstalled() { g_hooks.store(true, std::memory_order_relaxed); }

}  // namespace memory_tracker

ScopedPeakMemory::ScopedPeakMemory() {
  memory_tracker::ResetPeak();
  baseline_ = memory_tracker::CurrentBytes();
}

std::size_t ScopedPeakMemory::PeakDeltaBytes() const {
  const std::size_t peak = memory_tracker::PeakBytes();
  return peak > baseline_ ? peak - baseline_ : 0;
}

}  // namespace ufim
