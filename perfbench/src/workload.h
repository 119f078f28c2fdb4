#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/mining_result.h"
#include "trace.h"

namespace perfbench {

/// What one timed job hands back for checking.
struct JobOutput {
  ufim::MiningResult result;
  std::string listing;  ///< the printed listing (cli-oneshot only)
  double mine_wall_s = 0.0;  ///< wall time of the miner call alone
  double mine_cpu_s = 0.0;   ///< process CPU time over the miner call
};

/// One entry of a workload's job list. Every job of one kind does the
/// same work on the same input, so the first one is the untimed warm-up
/// and all of them share one reference result.
struct Job {
  std::string kind;       ///< e.g. "UApriori@0.02"
  std::string algorithm;  ///< registry name; keys the algo.* metrics
  /// The timed call. Opens spans under `tracer` when it is non-null.
  std::function<ufim::Result<JobOutput>(Tracer* tracer, int job)> run;
  /// Traced runs only: recomputes the job from the library's public
  /// building blocks under per-layer spans, and fails unless it reaches
  /// the job's frequent set. Null when the kind has no replay.
  std::function<ufim::Status(const JobOutput& out, Tracer* tracer, int job)>
      replay;
  /// The result the job must reproduce, built in setup.
  const ufim::MiningResult* reference = nullptr;
  /// The listing the job must print, when it prints one.
  const std::string* reference_listing = nullptr;
  /// Relative tolerance on the reported moments; 0 means bit-identical.
  double tolerance = 0.0;
};

/// Same itemsets in the same (canonical) order, with expected support,
/// variance and frequent probability within `rel_tol` relative.
ufim::Status CompareResults(const ufim::MiningResult& got,
                            const ufim::MiningResult& want, double rel_tol);

/// A job's output against its reference result and listing.
ufim::Status CheckOutput(const Job& job, const JobOutput& out);

/// Shape of one generated input, for the environment block.
struct DatasetShape {
  std::string name;
  std::size_t transactions = 0;
  std::size_t items = 0;
  double avg_length = 0.0;
  std::uintmax_t udb_bytes = 0;
};

/// A named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadConfig {
  std::uint64_t seed = 1;
  std::size_t threads = 1;  ///< miner threads
  std::string data_dir;     ///< where the .udb inputs are written
};

/// A closed-loop workload: one client issues `Next()` jobs back to back.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from the seed, writes and loads the .udb
  /// files, builds views and reference results, cross-checks the
  /// references, and runs every job kind once as its untimed warm-up
  /// (each checked against its reference).
  virtual ufim::Status Setup() = 0;

  /// Starts the job list over (a new shuffle, or a fresh stream).
  virtual void Restart() = 0;

  /// The next job of the loop. Untimed: may prepare state, e.g. a fresh
  /// stream miner at the start of a replay of the stream.
  virtual Job& Next() = 0;

  /// One job of every kind.
  virtual const std::vector<Job>& kinds() const = 0;

  virtual std::vector<DatasetShape> shapes() const = 0;

  /// Per-layer metrics only this workload can see (setup-time layers,
  /// stream state), from the jobs issued since the last Restart().
  virtual std::vector<Metric> LayerMetrics() const { return {}; }
};

/// The workload named `name` ("esup-quest", "prob-accident",
/// "stream-kosarak" or "cli-oneshot"); nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       const WorkloadConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
