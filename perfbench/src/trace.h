#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One timed interval around a call into the library, recorded by the
/// benchmark's own code (the library itself is not instrumented).
struct Span {
  std::string name;      ///< "<layer>.<what>", e.g. "io.parse", "apriori.count"
  double start_us = 0.0;  ///< microseconds since the tracer was created
  double end_us = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int job = -1;     ///< id of the job the span belongs to
  std::uint64_t count = 0;  ///< work items done inside the span, if counted

  double duration_us() const { return end_us - start_us; }
};

/// In-memory span recorder for the benchmark's single client thread.
/// Spans nest by call order: a span opened while another is open becomes
/// its child. Nothing is written until `WriteJsonLines` at the end of the
/// run, so tracing costs two clock reads and one vector append per span.
class Tracer {
 public:
  Tracer();

  /// Opens a span under the innermost open one; returns its id.
  int Begin(std::string name, int job);
  /// Closes span `id` (which must be the innermost open span).
  void End(int id);
  /// Records how many work items span `id` covered.
  void SetCount(int id, std::uint64_t count) { spans_[id].count = count; }

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start_us, end_us, parent, job, count.
  /// Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  double NowUs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op (untraced runs read no clock).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int job)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(std::move(name), job) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(std::uint64_t count) {
    if (tracer_ != nullptr) tracer_->SetCount(id_, count);
  }

 private:
  Tracer* tracer_;
  int id_;
};

/// Per span: its duration minus the time its direct children cover
/// (children of one span never overlap on the single client thread).
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

/// Module of the repository a span name belongs to: the text before the
/// first '.', with the algorithm sub-layers ("apriori", "uhstruct")
/// folded into "algo" and "stream" into "core". The benchmark's own job and
/// replay envelopes ("job", "replay") map to "bench": their self time is
/// the unattributed remainder.
std::string LayerOf(std::string_view span_name);

/// Self time summed per layer (see LayerOf), in microseconds.
std::map<std::string, double> SelfTimeByLayer(const std::vector<Span>& spans);

/// How much of the root spans named `root_name` their direct children
/// account for.
struct Reconciliation {
  std::size_t roots = 0;
  double root_us = 0.0;        ///< summed root durations
  double attributed_us = 0.0;  ///< summed durations of their children
  double unattributed_us() const { return root_us - attributed_us; }
  double unattributed_share() const {
    return root_us > 0.0 ? unattributed_us() / root_us : 0.0;
  }
};

Reconciliation Reconcile(const std::vector<Span>& spans,
                         std::string_view root_name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
