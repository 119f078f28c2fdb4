// perfbench: the layered end-to-end benchmark of the ufim library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>]
//
// Runs one workload as a closed loop with one client for --seconds and
// prints a report, then, as the last line of stdout, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs a third of the time untraced and
// the rest with spans and replays, and reports the per-layer metrics.
// See perfbench/README.md.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/miner_registry.h"
#include "core/simd_intersect.h"
#include "eval/memory_tracker.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Setup runs this many times per process; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Miner threads never exceed this, whatever the machine offers.
constexpr std::size_t kMaxThreads = 4;
/// ReferenceMs() on an uncontended CPU of the machine the bounds in
/// BENCHMARK.json were measured on (a 4-vCPU Intel Xeon VM, CPU family 6
/// model 207). Timings are reported at this reference speed.
constexpr double kNominalReferenceMs = 0.45;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

volatile std::uint32_t reference_sink;

/// Times three fixed pieces of work that run no library code, on the
/// calling thread, and returns the geometric mean of their times in ms.
/// On a shared host the speed of a virtual CPU swings by up to 1.6x, for
/// seconds at a time, with what the host's other tenants run; the whole
/// machine drifts as much over minutes. Scaling a job's time by
/// kNominalReferenceMs / ReferenceMs() taken on the same CPU just before
/// it cancels most of that swing while keeping every change in the
/// library's own cost. The pieces stand for what the library's jobs
/// spend their time on: branchy integer work, cache and memory traffic,
/// and the allocator.
double ReferenceMs() {
  static std::vector<std::uint32_t> keys(4096);
  static std::vector<std::uint8_t> block(8u << 20);

  Clock::time_point start = Clock::now();
  std::uint32_t x = 2463534242u;
  for (std::uint32_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    k = x;
  }
  std::sort(keys.begin(), keys.end());
  reference_sink = keys[keys.size() / 2];
  const double sort_ms = 1e3 * SecondsSince(start);

  start = Clock::now();
  for (std::size_t i = 0; i < block.size(); i += 64) ++block[i];
  reference_sink = block[block.size() / 2];
  const double memory_ms = 1e3 * SecondsSince(start);

  start = Clock::now();
  {
    std::vector<std::vector<double>> small;
    for (int i = 0; i < 4000; ++i) small.emplace_back(4 + i % 13, i);
    reference_sink = static_cast<std::uint32_t>(small[small.size() / 2][1]);
  }
  const double alloc_ms = 1e3 * SecondsSince(start);

  return std::cbrt(sort_ms * memory_ms * alloc_ms);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/run";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && opt->seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else if (flag == "--out-dir") {
      opt->out_dir = value;
    } else if (flag == "--git-sha") {
      opt->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

std::size_t OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

/// Moves the calling thread to the next CPU it may run on, round robin,
/// and gives it back its whole CPU set when destroyed. The swings of
/// different virtual CPUs (see ReferenceMs) are mostly independent;
/// issuing successive jobs from successive CPUs makes every job kind
/// sample all of them, and keeps a job on the CPU its reference time was
/// taken on. Only the calling thread moves: the miner thread pool exists
/// before the first move and keeps the whole set.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The posting-intersection kernel the `auto` dispatch resolves to here.
std::string KernelInUse() {
  const ufim::IntersectKernel forced = ufim::ForcedIntersectKernel();
  if (forced != ufim::IntersectKernel::kAuto) {
    return std::string("forced ") + ufim::IntersectKernelName(forced);
  }
  std::string simd = "scalar";
  if (ufim::SimdIntersectAvailable()) {
    simd = __builtin_cpu_supports("avx2") ? "simd (avx2)" : "simd (sse)";
  }
  return "auto: gallop on skewed lengths, otherwise " + simd;
}

void PrintEnvironment(const Options& opt, std::size_t threads,
                      const Workload& workload) {
  std::printf("== environment\n");
  std::printf("nproc              %zu\n", OnlineCpus());
  std::printf("HardwareThreads()  %zu\n", ufim::HardwareThreads());
  std::printf("cpu model          %s\n", CpuModel().c_str());
  std::printf("intersect kernel   %s\n", KernelInUse().c_str());
  std::printf("miner threads      %zu\n", threads);
  std::printf("build type         %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("git sha            %s\n", opt.git_sha.c_str());
  std::printf("workload           %s\n", opt.workload.c_str());
  std::printf("seed               %llu\n",
              static_cast<unsigned long long>(opt.seed));
  for (const DatasetShape& d : workload.shapes()) {
    std::printf("dataset %-10s %zu transactions, %zu items, avg length %.2f, "
                "%ju .udb bytes\n",
                d.name.c_str(), d.transactions, d.items, d.avg_length,
                d.udb_bytes);
  }
}

// ---------------------------------------------------------------------------
// The closed loop.

struct JobRecord {
  const Job* job = nullptr;
  int id = 0;
  double raw_ms = 0.0;        ///< wall time
  double reference_ms = 0.0;  ///< ReferenceMs() just before the job
  double ms = 0.0;            ///< wall time at the reference speed
  std::size_t peak_bytes = 0;
  bool ok = false;
  std::string error;
  std::size_t frequent = 0;
  ufim::MiningCounters counters;
  double mine_wall_s = 0.0;
  double mine_cpu_s = 0.0;
};

/// Issues jobs back to back for `seconds` of wall time, each from the
/// next CPU (see CpuRotation) after a reference time on it. Each job is
/// timed from outside (wall time and heap growth), then checked; with a
/// tracer, its replay runs after the check, outside the job's timing.
std::vector<JobRecord> RunLoop(Workload& workload, double seconds,
                               Tracer* tracer, int* next_id) {
  workload.Restart();
  std::vector<JobRecord> records;
  CpuRotation rotation;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) {
    rotation.Next();
    Job& job = workload.Next();
    JobRecord rec;
    rec.job = &job;
    rec.id = (*next_id)++;
    rec.reference_ms = ReferenceMs();
    ufim::Result<JobOutput> out = ufim::Status::Internal("not run");
    {
      const ufim::ScopedPeakMemory heap;
      const Clock::time_point job_start = Clock::now();
      {
        ScopedSpan span(tracer, "job", rec.id);
        out = job.run(tracer, rec.id);
      }
      rec.raw_ms = 1e3 * SecondsSince(job_start);
      rec.peak_bytes = heap.PeakDeltaBytes();
      rec.ms = rec.raw_ms * kNominalReferenceMs / rec.reference_ms;
    }
    ufim::Status status = out.ok() ? CheckOutput(job, *out) : out.status();
    if (status.ok() && tracer != nullptr && job.replay) {
      ScopedSpan span(tracer, "replay", rec.id);
      status = job.replay(*out, tracer, rec.id);
    }
    rec.ok = status.ok();
    if (!rec.ok) rec.error = status.ToString();
    if (out.ok()) {
      rec.frequent = out->result.size();
      rec.counters = out->result.counters();
      rec.mine_wall_s = out->mine_wall_s;
      rec.mine_cpu_s = out->mine_cpu_s;
    }
    records.push_back(std::move(rec));
  }
  return records;
}

std::size_t CountFailed(const std::vector<JobRecord>& records) {
  return static_cast<std::size_t>(std::count_if(
      records.begin(), records.end(), [](const JobRecord& r) { return !r.ok; }));
}

/// Correct jobs per second of job time (`JobRecord::ms` by default: at
/// the reference speed): the job list's kinds divided by the time one
/// pass over them takes at each kind's mean latency, times the share of
/// jobs that passed their check. Averaging per kind keeps a last,
/// unfinished pass from favouring the kinds it reached. A mean, not a
/// median: what is left of the host's swings moves a mean with the share
/// of jobs they hit, but makes a median jump once that share crosses one
/// half.
double JobsPerSecond(const std::vector<JobRecord>& records,
                     double JobRecord::*time_ms = &JobRecord::ms) {
  if (records.empty()) return 0.0;
  std::map<const Job*, std::vector<double>> ms_by_kind;
  for (const JobRecord& r : records) ms_by_kind[r.job].push_back(r.*time_ms);
  double pass_s = 0.0;
  for (const auto& [kind, ms] : ms_by_kind) {
    pass_s += std::accumulate(ms.begin(), ms.end(), 0.0) /
              static_cast<double>(ms.size()) / 1e3;
  }
  const double ok_share =
      1.0 - static_cast<double>(CountFailed(records)) /
                static_cast<double>(records.size());
  return ok_share * static_cast<double>(ms_by_kind.size()) / pass_s;
}

void PrintKinds(const std::vector<JobRecord>& records) {
  std::map<std::string, std::vector<double>> ms, raw_ms;
  std::map<std::string, std::size_t> frequent, peak;
  for (const JobRecord& r : records) {
    ms[r.job->kind].push_back(r.ms);
    raw_ms[r.job->kind].push_back(r.raw_ms);
    frequent[r.job->kind] = r.frequent;
    peak[r.job->kind] = std::max(peak[r.job->kind], r.peak_bytes);
  }
  std::printf("== jobs by kind (kind, jobs, median ms at reference speed, "
              "median wall ms, frequent itemsets, peak heap MB)\n");
  for (const auto& [kind, samples] : ms) {
    std::printf("%-24s %5zu %10.3f %10.3f %8zu %10.3f\n", kind.c_str(),
                samples.size(), Median(samples), Median(raw_ms[kind]),
                frequent[kind], static_cast<double>(peak[kind]) / 1e6);
  }
  for (const JobRecord& r : records) {
    if (!r.ok) {
      std::printf("FAILED job %d (%s): %s\n", r.id, r.job->kind.c_str(),
                  r.error.c_str());
    }
  }
}

std::vector<Metric> EndToEndMetrics(const std::vector<JobRecord>& records,
                                    double setup_s) {
  std::vector<double> ms, raw_ms, reference_ms;
  std::map<const Job*, std::vector<double>> ms_by_kind;
  std::size_t peak = 0;
  for (const JobRecord& r : records) {
    ms.push_back(r.ms);
    ms_by_kind[r.job].push_back(r.ms);
    raw_ms.push_back(r.raw_ms);
    reference_ms.push_back(r.reference_ms);
    peak = std::max(peak, r.peak_bytes);
  }
  std::printf("reference time     p10 %.4f, p50 %.4f, p90 %.4f ms (nominal %.4f ms)\n",
              Percentile(reference_ms, 10.0), Median(reference_ms),
              Percentile(reference_ms, 90.0), kNominalReferenceMs);
  std::printf("at wall time       jobs_per_s %.4f 1/s, job_ms.p50 %.4f ms\n",
              JobsPerSecond(records, &JobRecord::raw_ms), Median(raw_ms));
  // The median job of a pass over the job list: the middle one of the
  // kinds' median latencies. Pooling all jobs instead lets the uneven
  // last pass move the median from one kind's latencies to the next.
  std::vector<double> kind_medians;
  for (const auto& [kind, samples] : ms_by_kind) kind_medians.push_back(Median(samples));
  const std::optional<TailPick> tail = PickTail(ms);
  if (tail.has_value()) {
    std::printf("job_ms.tail is p%g over %zu jobs (%zu beyond it)\n",
                tail->percentile, tail->samples, tail->beyond);
  } else {
    std::printf("job_ms.tail is the maximum: only %zu jobs\n", ms.size());
  }
  return {
      {"jobs_per_s", JobsPerSecond(records), "1/s"},
      {"job_ms.p50", Median(kind_medians), "ms"},
      {"job_ms.tail", tail.has_value() ? tail->value : Percentile(ms, 100.0), "ms"},
      {"peak_heap_mb", static_cast<double>(peak) / 1e6, "MB"},
      {"setup_s", setup_s, "s"},
  };
}

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced run.

bool Contains(const std::vector<Metric>& metrics, const std::string& name) {
  return std::any_of(metrics.begin(), metrics.end(),
                     [&](const Metric& m) { return m.name == name; });
}

/// Every per-layer metric, in the order and with the units BENCHMARK.json
/// lists them. A traced run reports all of them; a metric whose layer the
/// workload does not exercise reads 0.
std::vector<Metric> LayerCatalog() {
  std::vector<Metric> c = {{"io.parse_ms", 0.0, "ms"},
                           {"io.parse_mb_per_s", 0.0, "MB/s"},
                           {"core.view_build_ms", 0.0, "ms"},
                           {"core.format_ms", 0.0, "ms"},
                           {"core.listed_itemsets", 0.0, "count"}};
  for (const std::string& a :
       ufim::MinerRegistry::Global().Names(/*production_only=*/true)) {
    c.push_back({"algo.mine_ms." + a, 0.0, "ms"});
    c.push_back({"algo.cpu_util." + a, 0.0, "ratio"});
    c.push_back({"algo.candidates." + a, 0.0, "count"});
    c.push_back({"algo.yield." + a, 0.0, "ratio"});
  }
  for (Metric m : std::initializer_list<Metric>{
           {"apriori.items_ms", 0.0, "ms"},
           {"apriori.gen_ms", 0.0, "ms"},
           {"apriori.count_ms", 0.0, "ms"},
           {"apriori.levels", 0.0, "count"},
           {"apriori.pruned", 0.0, "count"},
           {"uhstruct.build_ms", 0.0, "ms"},
           {"uhstruct.mine_ms", 0.0, "ms"},
           {"prob.tail_evals", 0.0, "count"},
           {"prob.bound_reject_ratio", 0.0, "ratio"},
           {"prob.tail_us.DP", 0.0, "us"},
           {"prob.tail_us.DC", 0.0, "us"},
           {"prob.screen_us", 0.0, "us"},
           {"stream.compact_batches", 0.0, "count"},
           {"stream.compact_batch_ms", 0.0, "ms"},
           {"stream.plain_batch_ms", 0.0, "ms"},
           {"stream.delta_txns", 0.0, "count"},
           {"stream.pool_size", 0.0, "count"},
           {"stream.pool_yield", 0.0, "ratio"},
           {"trace.job_unattributed_pct", 0.0, "%"},
           {"trace.replay_unattributed_pct", 0.0, "%"},
           {"trace.overhead_pct", 0.0, "%"}}) {
    c.push_back(std::move(m));
  }
  return c;
}

struct SpanTotals {
  std::size_t spans = 0;
  double us = 0.0;
  std::uint64_t count = 0;
  std::uint64_t max_count = 0;
  std::vector<double> ms;
  std::set<int> jobs;  ///< jobs with at least one such span
};

std::vector<Metric> LayerMetrics(const Workload& workload,
                                 const std::vector<JobRecord>& records,
                                 const Tracer& tracer, double untraced_jobs_per_s) {
  std::map<std::string, SpanTotals> by_name;
  std::map<int, const JobRecord*> by_id;
  for (const JobRecord& r : records) by_id[r.id] = &r;
  std::map<std::string, std::vector<double>> mine_ms;  // per algorithm
  for (const Span& s : tracer.spans()) {
    SpanTotals& t = by_name[s.name];
    ++t.spans;
    t.us += s.duration_us();
    t.count += s.count;
    t.max_count = std::max(t.max_count, s.count);
    t.ms.push_back(s.duration_us() / 1e3);
    t.jobs.insert(s.job);
    if (s.name == "algo.mine" && by_id.count(s.job) != 0) {
      mine_ms[by_id[s.job]->job->algorithm].push_back(s.duration_us() / 1e3);
    }
  }
  std::vector<Metric> out;
  auto has = [&](const std::string& name) { return by_name.count(name) != 0; };
  // Mean per job that has the span: the "per replay" figures.
  auto per_job = [&](const std::string& name, double total) {
    return total / static_cast<double>(by_name[name].jobs.size());
  };

  if (has("io.parse")) {
    const SpanTotals& p = by_name["io.parse"];
    out.push_back({"io.parse_ms", Median(p.ms), "ms"});
    out.push_back({"io.parse_mb_per_s", static_cast<double>(p.count) / p.us, "MB/s"});
  }
  if (has("core.view_build")) {
    out.push_back({"core.view_build_ms", Median(by_name["core.view_build"].ms), "ms"});
  }
  if (has("core.format")) {
    out.push_back({"core.format_ms", Median(by_name["core.format"].ms), "ms"});
    out.push_back({"core.listed_itemsets",
                   static_cast<double>(by_name["core.format"].max_count), "count"});
  }

  // algo.*: times from the traced jobs; counters from one job per kind,
  // which makes them a deterministic function of the seed.
  std::map<std::string, double> cpu, wall, candidates, frequent;
  std::set<std::string> seen_kinds;
  ufim::MiningCounters prob;
  for (const JobRecord& r : records) {
    const std::string& a = r.job->algorithm;
    cpu[a] += r.mine_cpu_s;
    wall[a] += r.mine_wall_s;
    if (r.ok && seen_kinds.insert(r.job->kind).second) {
      candidates[a] += static_cast<double>(r.counters.candidates_generated);
      frequent[a] += static_cast<double>(r.frequent);
      if (r.counters.exact_tail_evals + r.counters.candidates_rejected_bound > 0) {
        prob += r.counters;
      }
    }
  }
  for (const auto& [a, samples] : mine_ms) {
    out.push_back({"algo.mine_ms." + a, Median(samples), "ms"});
    out.push_back({"algo.cpu_util." + a, wall[a] > 0.0 ? cpu[a] / wall[a] : 0.0,
                   "ratio"});
    out.push_back({"algo.candidates." + a, candidates[a], "count"});
    out.push_back({"algo.yield." + a,
                   candidates[a] > 0.0 ? frequent[a] / candidates[a] : 0.0, "ratio"});
  }

  if (has("apriori.count")) {
    out.push_back({"apriori.items_ms",
                   per_job("apriori.items", by_name["apriori.items"].us / 1e3), "ms"});
    out.push_back({"apriori.gen_ms",
                   per_job("apriori.items", by_name["apriori.gen"].us / 1e3), "ms"});
    out.push_back({"apriori.count_ms",
                   per_job("apriori.items", by_name["apriori.count"].us / 1e3), "ms"});
    out.push_back({"apriori.levels",
                   per_job("apriori.items",
                           static_cast<double>(by_name["apriori.count"].spans)),
                   "count"});
    out.push_back({"apriori.pruned",
                   per_job("apriori.items",
                           static_cast<double>(by_name["apriori.gen"].count)),
                   "count"});
  }
  if (has("uhstruct.build")) {
    out.push_back({"uhstruct.build_ms",
                   per_job("uhstruct.build", by_name["uhstruct.build"].us / 1e3), "ms"});
    out.push_back({"uhstruct.mine_ms",
                   per_job("uhstruct.build", by_name["uhstruct.mine"].us / 1e3), "ms"});
  }
  if (has("prob.screen")) {
    out.push_back({"prob.tail_evals", static_cast<double>(prob.exact_tail_evals),
                   "count"});
    out.push_back({"prob.bound_reject_ratio",
                   prob.candidates_generated > 0
                       ? static_cast<double>(prob.candidates_rejected_bound) /
                             static_cast<double>(prob.candidates_generated)
                       : 0.0,
                   "ratio"});
    for (const auto& [span, metric] :
         {std::pair{"prob.tail_dp", "prob.tail_us.DP"},
          std::pair{"prob.tail_dc", "prob.tail_us.DC"},
          std::pair{"prob.screen", "prob.screen_us"}}) {
      const SpanTotals& t = by_name[span];
      if (t.count > 0) {
        out.push_back({metric, t.us / static_cast<double>(t.count), "us"});
      }
    }
  }
  for (Metric& m : workload.LayerMetrics()) {
    if (!Contains(out, m.name)) out.push_back(std::move(m));
  }

  const Reconciliation jobs = Reconcile(tracer.spans(), "job");
  const Reconciliation replays = Reconcile(tracer.spans(), "replay");
  std::printf("== span reconciliation\n");
  std::printf("job spans    %6zu  %12.3f ms, children %12.3f ms, unattributed %.3f ms (%.3f%%)\n",
              jobs.roots, jobs.root_us / 1e3, jobs.attributed_us / 1e3,
              jobs.unattributed_us() / 1e3, 100.0 * jobs.unattributed_share());
  std::printf("replay spans %6zu  %12.3f ms, children %12.3f ms, unattributed %.3f ms (%.3f%%)\n",
              replays.roots, replays.root_us / 1e3, replays.attributed_us / 1e3,
              replays.unattributed_us() / 1e3, 100.0 * replays.unattributed_share());
  std::printf("== self time by layer\n");
  for (const auto& [layer, us] : SelfTimeByLayer(tracer.spans())) {
    std::printf("%-8s %12.3f ms\n", layer.c_str(), us / 1e3);
  }
  const double traced_jobs_per_s = JobsPerSecond(records);
  std::printf("== tracing overhead: untraced %.4f jobs/s, traced %.4f jobs/s\n",
              untraced_jobs_per_s, traced_jobs_per_s);
  out.push_back({"trace.job_unattributed_pct", 100.0 * jobs.unattributed_share(), "%"});
  if (replays.roots > 0) {
    out.push_back({"trace.replay_unattributed_pct",
                   100.0 * replays.unattributed_share(), "%"});
  }
  out.push_back({"trace.overhead_pct",
                 traced_jobs_per_s > 0.0
                     ? 100.0 * (untraced_jobs_per_s / traced_jobs_per_s - 1.0)
                     : 0.0,
                 "%"});

  // Every catalog metric, in catalog order; 0 where the workload does
  // not exercise the layer.
  std::vector<Metric> all = LayerCatalog();
  for (Metric& m : all) {
    for (const Metric& measured : out) {
      if (measured.name == m.name) m.value = measured.value;
    }
  }
  for (Metric& m : out) {
    if (!Contains(all, m.name)) all.push_back(std::move(m));
  }
  return all;
}

void PrintResult(const std::vector<Metric>& metrics, std::size_t attempted,
                 std::size_t failed) {
  std::printf("== metrics\n");
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-32s %16.6f (failed %zu of %zu attempted)\n", "failed_ratio",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                            : 0.0,
              failed, attempted);
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// The checker must reject a perturbed reference: a job whose output
/// matches its true reference is checked against a copy nudged by 1e-6
/// relative (far beyond any tolerance), and must count as failed.
ufim::Status SelfCheck(const Workload& workload) {
  for (const Job& job : workload.kinds()) {
    if (job.reference == nullptr || job.reference->empty()) continue;
    JobOutput out;
    out.result = *job.reference;
    if (job.reference_listing != nullptr) out.listing = *job.reference_listing;
    ufim::MiningResult perturbed;
    bool first = true;
    for (ufim::FrequentItemset fi : job.reference->itemsets()) {
      if (first) fi.expected_support *= 1.0 + 1e-6;
      first = false;
      perturbed.Add(std::move(fi));
    }
    Job probe = job;
    if (!CheckOutput(probe, out).ok()) {
      return ufim::Status::Internal("self-check: " + job.kind +
                                    " fails against its own reference");
    }
    probe.reference = &perturbed;
    if (CheckOutput(probe, out).ok()) {
      return ufim::Status::Internal("self-check: a perturbed reference of " +
                                    job.kind + " went undetected");
    }
    std::printf("self-check: a perturbed %s reference counts as a failed job\n",
                job.kind.c_str());
    return ufim::Status::OK();
  }
  return ufim::Status::Internal("self-check: no non-empty reference");
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--git-sha <sha>]\n");
    return 2;
  }
  const std::size_t threads = std::min(OnlineCpus(), kMaxThreads);
  const std::string data_dir = opt.out_dir + "/data";
  std::error_code ec;
  std::filesystem::create_directories(data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", data_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // The miner thread pool starts here, with the whole CPU set, before
  // any CpuRotation moves this thread.
  static_cast<void>(ufim::ThreadPool::Global());

  // Setup, several times and each from the next CPU, timed at the
  // reference speed (the mean of a reference time before and after it);
  // the last instance is the one measured.
  const WorkloadConfig config{opt.seed, threads, data_dir};
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  {
    CpuRotation setup_rotation;
    for (int r = 0; r < kSetupRepeats; ++r) {
      setup_rotation.Next();
      const double reference_before = ReferenceMs();
      const Clock::time_point start = r == 0 ? process_start : Clock::now();
      workload.reset();
      workload = MakeWorkload(opt.workload, config);
      if (workload == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
        return 2;
      }
      const ufim::Status status = workload->Setup();
      if (!status.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
        return 1;
      }
      const double wall_s = SecondsSince(start);
      const double reference_ms = (reference_before + ReferenceMs()) / 2.0;
      setup_s.push_back(wall_s * kNominalReferenceMs / reference_ms);
    }
  }
  PrintEnvironment(opt, threads, *workload);
  const ufim::Status self_check = SelfCheck(*workload);
  if (!self_check.ok()) {
    std::fprintf(stderr, "%s\n", self_check.ToString().c_str());
    return 1;
  }

  int next_id = 0;
  if (!opt.trace) {
    const std::vector<JobRecord> records =
        RunLoop(*workload, opt.seconds, nullptr, &next_id);
    PrintKinds(records);
    PrintResult(EndToEndMetrics(records, Median(setup_s)), records.size(),
                CountFailed(records));
    return 0;
  }

  const std::vector<JobRecord> untraced =
      RunLoop(*workload, opt.seconds / 3.0, nullptr, &next_id);
  Tracer tracer;
  const std::vector<JobRecord> traced =
      RunLoop(*workload, opt.seconds - opt.seconds / 3.0, &tracer, &next_id);
  PrintKinds(traced);
  const std::vector<Metric> metrics =
      LayerMetrics(*workload, traced, tracer, JobsPerSecond(untraced));
  const std::string trace_path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                                 std::to_string(opt.seed) + ".jsonl";
  if (tracer.WriteJsonLines(trace_path)) {
    std::printf("spans written to %s\n", trace_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
  }
  PrintResult(metrics, untraced.size() + traced.size(),
              CountFailed(untraced) + CountFailed(traced));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
