// The four workloads. Sizes and thresholds are chosen so that one run of
// a few tens of seconds issues hundreds of jobs (enough for a stable
// median and a p95 with ten samples beyond it) and so that the figures
// move little from one seed to the next.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <span>

#include "common/rng.h"
#include "core/delta_miner.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "core/sharded_miner.h"
#include "core/uncertain_database.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "io/dataset_io.h"
#include "replay.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

using ufim::ExpectedSupportParams;
using ufim::FlatView;
using ufim::Itemset;
using ufim::MiningResult;
using ufim::MiningTask;
using ufim::ProbabilisticParams;
using ufim::Result;
using ufim::Status;
using ufim::UncertainDatabase;

// ---------------------------------------------------------------------------
// Output checks.

namespace {

bool Close(double got, double want, double rel_tol) {
  if (rel_tol == 0.0) return got == want;
  return std::fabs(got - want) <= rel_tol * std::max(1.0, std::fabs(want));
}

}  // namespace

Status CompareResults(const MiningResult& got, const MiningResult& want,
                      double rel_tol) {
  if (got.size() != want.size()) {
    return Status::Internal("got " + std::to_string(got.size()) +
                            " frequent itemsets, want " +
                            std::to_string(want.size()));
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const ufim::FrequentItemset& g = got[i];
    const ufim::FrequentItemset& w = want[i];
    const bool same_prob =
        g.frequent_probability.has_value() == w.frequent_probability.has_value() &&
        (!g.frequent_probability.has_value() ||
         Close(*g.frequent_probability, *w.frequent_probability, rel_tol));
    if (!(g.itemset == w.itemset) ||
        !Close(g.expected_support, w.expected_support, rel_tol) ||
        !Close(g.variance, w.variance, rel_tol) || !same_prob) {
      return Status::Internal("itemset #" + std::to_string(i) + " " +
                              g.itemset.ToString() + " differs from " +
                              w.itemset.ToString());
    }
  }
  return Status::OK();
}

Status CheckOutput(const Job& job, const JobOutput& out) {
  if (job.reference == nullptr) {
    return Status::Internal(job.kind + " has no reference result");
  }
  UFIM_RETURN_IF_ERROR(CompareResults(out.result, *job.reference, job.tolerance));
  if (job.reference_listing != nullptr && out.listing != *job.reference_listing) {
    return Status::Internal(job.kind + " printed a different listing");
  }
  return Status::OK();
}

namespace {

// ---------------------------------------------------------------------------
// Shared helpers.

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Independent generator seed number `stream` of a workload seed.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string Kind(std::string_view algorithm, double threshold) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*s@%g", static_cast<int>(algorithm.size()),
                algorithm.data(), threshold);
  return buf;
}

/// The job's miner call: the algo.mine span plus wall and CPU time.
template <typename Fn>
Result<MiningResult> TimedMine(Tracer* tracer, int job, JobOutput& out,
                               Fn&& mine) {
  ScopedSpan span(tracer, "algo.mine", job);
  const double cpu_start = CpuSeconds();
  const auto start = std::chrono::steady_clock::now();
  Result<MiningResult> result = mine();
  out.mine_wall_s = SecondsSince(start);
  out.mine_cpu_s = CpuSeconds() - cpu_start;
  return result;
}

Result<std::shared_ptr<const ufim::Miner>> CreateMiner(
    const std::string& name, std::size_t threads,
    ufim::PrefilterMode prefilter = ufim::PrefilterMode::kOff) {
  ufim::MinerOptions options;
  options.num_threads = threads;
  options.prefilter = prefilter;
  // Fewer sampled worlds than the default keep an MCSampling job within
  // the range of the exact DP/DC jobs.
  options.mc_samples = 128;
  std::shared_ptr<const ufim::Miner> miner =
      ufim::MinerRegistry::Global().Create(name, options);
  if (miner == nullptr) return Status::NotFound("no miner named " + name);
  return miner;
}

/// A generated database, written as .udb and read back.
struct Input {
  UncertainDatabase db;  ///< as parsed from the file
  std::string path;
  DatasetShape shape;
};

Result<Input> WriteAndLoad(const UncertainDatabase& generated, std::string name,
                           const std::string& path) {
  UFIM_RETURN_IF_ERROR(ufim::WriteDataset(generated, path));
  Input in;
  UFIM_ASSIGN_OR_RETURN(in.db, ufim::ReadDataset(path));
  if (in.db.transactions() != generated.transactions()) {
    return Status::Internal(path + " did not read back as written");
  }
  in.path = path;
  const ufim::DatabaseStats stats = in.db.ComputeStats();
  in.shape = {std::move(name), stats.num_transactions, stats.num_items,
              stats.avg_length, std::filesystem::file_size(path)};
  return in;
}

/// Base of the three workloads that draw their jobs from a fixed list,
/// shuffled anew (from the workload seed) on every pass.
class ShuffledWorkload : public Workload {
 public:
  explicit ShuffledWorkload(const WorkloadConfig& config)
      : config_(config), order_rng_(DeriveSeed(config.seed, 100)) {}

  void Restart() override { cursor_ = order_.size(); }

  Job& Next() override {
    if (cursor_ >= order_.size()) {
      order_.resize(jobs_.size());
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (std::size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[order_rng_.UniformInt(0, i - 1)]);
      }
      cursor_ = 0;
    }
    return jobs_[order_[cursor_++]];
  }

  const std::vector<Job>& kinds() const override { return jobs_; }
  std::vector<DatasetShape> shapes() const override { return shapes_; }
  std::vector<Metric> LayerMetrics() const override {
    return {{"core.view_build_ms", view_build_ms_, "ms"}};
  }

 protected:
  /// Builds the resident view and times it.
  void BuildView(const UncertainDatabase& db) {
    const auto start = std::chrono::steady_clock::now();
    view_ = std::make_shared<const FlatView>(db);
    view_build_ms_ = 1e3 * SecondsSince(start);
  }

  const MiningResult* Keep(MiningResult result) {
    refs_.push_back(std::move(result));
    return &refs_.back();
  }

  /// The untimed warm-up: every kind once, checked against its
  /// reference. A kind without one adopts its warm-up output, so later
  /// jobs of it must reproduce that bit for bit.
  Result<std::vector<JobOutput>> WarmUp() {
    std::vector<JobOutput> outputs;
    for (Job& job : jobs_) {
      UFIM_ASSIGN_OR_RETURN(JobOutput out, job.run(nullptr, -1));
      if (job.reference == nullptr) {
        job.reference = Keep(out.result);
        job.tolerance = 0.0;
      }
      Status check = CheckOutput(job, out);
      if (!check.ok()) {
        return Status::Internal("warm-up " + job.kind + ": " + check.ToString());
      }
      outputs.push_back(std::move(out));
    }
    return outputs;
  }

  WorkloadConfig config_;
  std::vector<Job> jobs_;
  std::vector<DatasetShape> shapes_;
  std::shared_ptr<const FlatView> view_;
  double view_build_ms_ = 0.0;
  std::deque<MiningResult> refs_;  // deque: Job::reference stays valid

 private:
  ufim::Rng order_rng_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
};

/// A job that mines a resident view with a registry miner.
Job ResidentJob(std::string kind, std::string algorithm,
                std::shared_ptr<const FlatView> view,
                std::shared_ptr<const ufim::Miner> miner, MiningTask task) {
  Job job;
  job.kind = std::move(kind);
  job.algorithm = std::move(algorithm);
  job.run = [view, miner, task](Tracer* tracer, int id) -> Result<JobOutput> {
    JobOutput out;
    UFIM_ASSIGN_OR_RETURN(out.result, TimedMine(tracer, id, out, [&] {
                            return miner->Mine(*view, task);
                          }));
    return out;
  };
  return job;
}

// ---------------------------------------------------------------------------
// esup-quest: the expected-support miners over a resident QUEST view.

// Three independently drawn QUEST views: how much work a threshold
// means on QUEST hinges on the item and pattern popularity one seed
// draws, and spreading every job kind over three draws averages that out.
constexpr std::size_t kQuestViews = 3;
constexpr std::size_t kQuestTxns = 4000;

struct EsupSpec {
  const char* algorithm;
  double min_esup;
};

// 0.02 is shared by all three algorithms: the cross-miner check. Below
// about 0.0075, UH-Mine's output (and time) hinges on the long patterns
// QUEST happens to draw for a seed, so its thresholds stay above that.
constexpr EsupSpec kEsupJobs[] = {
    {"UApriori", 0.02},   {"UApriori", 0.03}, {"UFP-growth", 0.01},
    {"UFP-growth", 0.02}, {"UH-Mine", 0.0075}, {"UH-Mine", 0.01},
    {"UH-Mine", 0.015},
};

class EsupQuest final : public ShuffledWorkload {
 public:
  using ShuffledWorkload::ShuffledWorkload;

  Status Setup() override {
    double view_ms = 0.0;
    for (std::size_t v = 0; v < kQuestViews; ++v) {
      const std::string name = "quest" + std::to_string(v);
      UFIM_ASSIGN_OR_RETURN(
          ufim::DeterministicDatabase det,
          ufim::MakeQuestT25I15(kQuestTxns, DeriveSeed(config_.seed, 1 + 2 * v)));
      UFIM_ASSIGN_OR_RETURN(
          Input in,
          WriteAndLoad(ufim::AssignGaussianProbabilities(
                           det, 0.9, 0.1, DeriveSeed(config_.seed, 2 + 2 * v)),
                       name, config_.data_dir + "/esup-" + name + ".udb"));
      shapes_.push_back(in.shape);
      BuildView(in.db);
      view_ms += view_build_ms_;
      UFIM_RETURN_IF_ERROR(AddJobs(name));
    }
    view_build_ms_ = view_ms / static_cast<double>(kQuestViews);
    return WarmUp().status();
  }

 private:
  /// The job list over the current view. References: UH-Mine at every
  /// threshold; the other exact miners must agree with it within 1e-9
  /// relative.
  Status AddJobs(const std::string& view_name) {
    UFIM_ASSIGN_OR_RETURN(const auto reference_miner,
                          CreateMiner("UH-Mine", config_.threads));
    std::map<double, const MiningResult*> reference_at;
    for (const EsupSpec& spec : kEsupJobs) {
      if (reference_at.count(spec.min_esup) != 0) continue;
      UFIM_ASSIGN_OR_RETURN(
          MiningResult ref,
          reference_miner->Mine(*view_,
                                MiningTask{ExpectedSupportParams{spec.min_esup}}));
      reference_at[spec.min_esup] = Keep(std::move(ref));
    }

    const std::shared_ptr<const FlatView> view = view_;
    const std::size_t threads = config_.threads;
    for (const EsupSpec& spec : kEsupJobs) {
      const std::string algorithm = spec.algorithm;
      const double min_esup = spec.min_esup;
      UFIM_ASSIGN_OR_RETURN(const auto miner, CreateMiner(algorithm, threads));
      Job job = ResidentJob(view_name + "/" + Kind(algorithm, min_esup),
                            algorithm, view, miner,
                            ExpectedSupportParams{min_esup});
      job.reference = reference_at[min_esup];
      job.tolerance = 1e-9;
      if (algorithm == "UApriori") {
        job.replay = [=](const JobOutput& out, Tracer* tracer, int id) {
          return SameFrequentSet(
              ReplayUApriori(*view, min_esup, threads, tracer, id), out.result);
        };
      } else if (algorithm == "UH-Mine") {
        job.replay = [=](const JobOutput& out, Tracer* tracer, int id) {
          return SameFrequentSet(ReplayUHStruct(*view,
                                                UHMineHooks(*view, min_esup),
                                                threads, tracer, id),
                                 out.result);
        };
      }
      jobs_.push_back(std::move(job));
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// prob-accident: the probabilistic miners over a resident dense view.

constexpr std::size_t kAccidentTxns = 3000;
constexpr double kAccidentMinSup = 0.25;
constexpr double kAccidentLowMinSup = 0.2;
constexpr double kAccidentPft = 0.9;

struct ExactMiner {
  const char* name;
  bool dc;        ///< DC tails; DP otherwise
  bool chernoff;  ///< the "B" variants
};
constexpr ExactMiner kExactMiners[] = {
    {"DPB", false, true}, {"DPNB", false, false},
    {"DCB", true, true},  {"DCNB", true, false},
};

class ProbAccident final : public ShuffledWorkload {
 public:
  using ShuffledWorkload::ShuffledWorkload;

  Status Setup() override {
    const ufim::DeterministicDatabase det =
        ufim::MakeAccidentLike(kAccidentTxns, DeriveSeed(config_.seed, 1));
    UFIM_ASSIGN_OR_RETURN(
        Input in,
        WriteAndLoad(ufim::AssignGaussianProbabilities(
                         det, 0.9, 0.1, DeriveSeed(config_.seed, 2)),
                     "accident", config_.data_dir + "/prob-accident.udb"));
    shapes_.push_back(in.shape);
    BuildView(in.db);

    const ProbabilisticParams params{kAccidentMinSup, kAccidentPft};
    const MiningTask task = params;
    // The exact reference: DPNB without the prefilter. Every exact job
    // (DP or DC, with or without Chernoff and the prefilter) must agree
    // with it within 1e-9 relative, frequent probabilities included.
    UFIM_ASSIGN_OR_RETURN(const auto reference_miner,
                          CreateMiner("DPNB", config_.threads));
    UFIM_ASSIGN_OR_RETURN(MiningResult exact, reference_miner->Mine(*view_, task));
    const MiningResult* exact_ref = Keep(std::move(exact));

    const std::size_t threads = config_.threads;
    const std::shared_ptr<const FlatView> view = view_;
    for (const auto& [algorithm, dc, chernoff] : kExactMiners) {
      for (ufim::PrefilterMode mode :
           {ufim::PrefilterMode::kOff, ufim::PrefilterMode::kBounds}) {
        UFIM_ASSIGN_OR_RETURN(const auto miner,
                              CreateMiner(algorithm, threads, mode));
        Job job = ResidentJob(
            algorithm + ("/" + std::string(ufim::PrefilterModeName(mode))),
            algorithm, view_, miner, task);
        job.reference = exact_ref;
        job.tolerance = 1e-9;
        const ExactSpec spec{dc, chernoff, mode};
        job.replay = [=](const JobOutput& out, Tracer* tracer, int id) {
          return SameFrequentSet(
              ReplayExact(*view, params, spec, threads, tracer, id), out.result);
        };
        jobs_.push_back(std::move(job));
      }
    }
    // NDUH-Mine also runs at a second threshold: thirteen kinds put the
    // median inside one kind's latencies instead of between two.
    for (const auto& [name, min_sup] :
         {std::pair{"PDUApriori", kAccidentMinSup},
          std::pair{"NDUApriori", kAccidentMinSup},
          std::pair{"NDUH-Mine", kAccidentMinSup},
          std::pair{"NDUH-Mine", kAccidentLowMinSup},
          std::pair{"MCSampling", kAccidentMinSup}}) {
      const std::string algorithm = name;
      const ProbabilisticParams approx{min_sup, kAccidentPft};
      UFIM_ASSIGN_OR_RETURN(const auto miner, CreateMiner(algorithm, threads));
      Job job = ResidentJob(Kind(algorithm, min_sup), algorithm, view_, miner,
                            approx);
      if (algorithm == "NDUH-Mine") {
        job.replay = [=](const JobOutput& out, Tracer* tracer, int id) {
          return SameFrequentSet(ReplayUHStruct(*view, NDUHMineHooks(*view, approx),
                                                threads, tracer, id),
                                 out.result);
        };
      }
      jobs_.push_back(std::move(job));
    }

    UFIM_ASSIGN_OR_RETURN(std::vector<JobOutput> outputs, WarmUp());
    // The prefilter may only skip work: "off" and "bounds" runs of one
    // algorithm (adjacent in the job list) must be bit-identical.
    for (std::size_t i = 0; i + 1 < 2 * std::size(kExactMiners); i += 2) {
      Status same = CompareResults(outputs[i + 1].result, outputs[i].result, 0.0);
      if (!same.ok()) {
        return Status::Internal(jobs_[i + 1].kind + " differs from " +
                                jobs_[i].kind + ": " + same.ToString());
      }
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// stream-kosarak: DeltaMiner(UH-Mine) replaying a sparse stream.

// Fixed batch sizes keep the number of batches, and so the job mix, the
// same on every seed; an odd batch count puts the median latency inside
// one batch's samples. The first batch is one and a half batches long:
// with equal batches the delta/base ratio lands exactly on the default
// policy's 0.25 (one batch over a base of four), and whether a batch
// compacts would then hang on the seed's last few units.
constexpr std::size_t kBatchTxns = 10240;
constexpr std::size_t kFirstBatchTxns = kBatchTxns + kBatchTxns / 2;
constexpr std::size_t kStreamBatches = 13;
constexpr std::size_t kStreamTxns =
    kFirstBatchTxns + (kStreamBatches - 1) * kBatchTxns;
constexpr double kStreamMinEsup = 0.003;

class StreamKosarak final : public Workload {
 public:
  explicit StreamKosarak(const WorkloadConfig& config) : config_(config) {}
  StreamKosarak(const StreamKosarak&) = delete;  // jobs capture `this`
  StreamKosarak& operator=(const StreamKosarak&) = delete;

  Status Setup() override {
    const ufim::DeterministicDatabase det =
        ufim::MakeKosarakLike(kStreamTxns, DeriveSeed(config_.seed, 1));
    UFIM_ASSIGN_OR_RETURN(
        input_, WriteAndLoad(ufim::AssignGaussianProbabilities(
                                 det, 0.9, 0.1, DeriveSeed(config_.seed, 2)),
                             "kosarak", config_.data_dir + "/stream-kosarak.udb"));
    const std::vector<ufim::Transaction>& txns = input_.db.transactions();
    for (std::size_t at = 0; at < txns.size();) {
      const std::size_t size =
          std::min(at == 0 ? kFirstBatchTxns : kBatchTxns, txns.size() - at);
      batches_.emplace_back(txns.data() + at, size);
      at += size;
    }

    // One-shot reference over the whole stream.
    const auto start = std::chrono::steady_clock::now();
    const FlatView full(input_.db);
    view_build_ms_ = 1e3 * SecondsSince(start);
    UFIM_ASSIGN_OR_RETURN(const auto one_shot_miner,
                          CreateMiner("UH-Mine", config_.threads));
    UFIM_ASSIGN_OR_RETURN(
        MiningResult one_shot,
        one_shot_miner->Mine(full,
                             MiningTask{ExpectedSupportParams{kStreamMinEsup}}));

    for (std::size_t k = 0; k < batches_.size(); ++k) {
      Job job;
      job.kind = "batch#" + std::to_string(k);
      job.algorithm = "UH-Mine";
      job.run = [this, k](Tracer* tracer, int id) { return RunBatch(k, tracer, id); };
      job.replay = [this, k](const JobOutput& out, Tracer* tracer, int id) {
        return ReplayBatch(k, out, tracer, id);
      };
      jobs_.push_back(std::move(job));
    }

    // Warm-up: one untimed pass over the stream. Its per-batch results
    // are the references of every later pass, and its final result must
    // equal the one-shot mine of the same transactions.
    batch_refs_.resize(batches_.size());
    compacts_.resize(batches_.size());
    Restart();
    for (std::size_t k = 0; k < batches_.size(); ++k) {
      Job& job = Next();
      UFIM_ASSIGN_OR_RETURN(JobOutput out, job.run(nullptr, -1));
      compacts_[k] = last_compacted_;
      batch_refs_[k] = std::move(out.result);
      job.reference = &batch_refs_[k];
    }
    final_pool_ = (*miner_)->candidate_pool_size();
    Status same = CompareResults(batch_refs_.back(), one_shot, 1e-9);
    if (!same.ok()) {
      return Status::Internal("stream result differs from the one-shot mine: " +
                              same.ToString());
    }
    Restart();
    return Status::OK();
  }

  void Restart() override {
    cursor_ = batches_.size();
    timed_.clear();
  }

  Job& Next() override {
    if (cursor_ >= batches_.size()) {
      ufim::MinerOptions options;
      options.num_threads = config_.threads;
      miner_ = ufim::MakeDeltaMiner(
          "UH-Mine", ExpectedSupportParams{kStreamMinEsup}, options);
      replay_pool_.clear();
      cursor_ = 0;
    }
    return jobs_[cursor_++];
  }

  const std::vector<Job>& kinds() const override { return jobs_; }
  std::vector<DatasetShape> shapes() const override { return {input_.shape}; }

  std::vector<Metric> LayerMetrics() const override {
    std::vector<double> compact_ms, plain_ms;
    double delta_sum = 0.0;
    for (const BatchSample& s : timed_) {
      (compacts_[s.batch] ? compact_ms : plain_ms).push_back(s.ms);
      delta_sum += static_cast<double>(s.delta_txns);
    }
    const double pool = static_cast<double>(final_pool_);
    return {
        {"core.view_build_ms", view_build_ms_, "ms"},
        {"stream.compact_batches",
         static_cast<double>(std::count(compacts_.begin(), compacts_.end(), true)),
         "count"},
        {"stream.compact_batch_ms", Median(compact_ms), "ms"},
        {"stream.plain_batch_ms", Median(plain_ms), "ms"},
        {"stream.delta_txns",
         timed_.empty() ? 0.0 : delta_sum / static_cast<double>(timed_.size()),
         "count"},
        {"stream.pool_size", pool, "count"},
        {"stream.pool_yield",
         pool > 0.0 ? static_cast<double>(batch_refs_.back().size()) / pool : 0.0,
         "ratio"},
    };
  }

 private:
  struct BatchSample {
    std::size_t batch = 0;
    double ms = 0.0;
    std::size_t delta_txns = 0;
  };

  Result<JobOutput> RunBatch(std::size_t k, Tracer* tracer, int id) {
    UFIM_RETURN_IF_ERROR(miner_.status());
    ufim::DeltaMiner& miner = **miner_;
    const std::size_t compactions = miner.view().compactions();
    JobOutput out;
    UFIM_ASSIGN_OR_RETURN(out.result, TimedMine(tracer, id, out, [&] {
                            return miner.MineNext(batches_[k]);
                          }));
    last_compacted_ = miner.view().compactions() != compactions;
    if (id >= 0) {
      timed_.push_back({k, 1e3 * out.mine_wall_s,
                        miner.view().delta_transactions()});
    }
    return out;
  }

  /// The batch again from public parts: the appended suffix mined as its
  /// own UH-Struct shard, the shard's frequent itemsets added to a pool,
  /// and the pool recounted exactly over a snapshot of the whole stream.
  Status ReplayBatch(std::size_t k, const JobOutput& out, Tracer* tracer,
                     int id) {
    ufim::StreamingSnapshot snap;
    {
      ScopedSpan span(tracer, "core.snapshot", id);
      snap = (*miner_)->view().Snapshot();
    }
    const std::size_t hi = snap.watermark();
    const FlatView suffix = snap.view().Slice(hi - batches_[k].size(), hi);
    for (Itemset& is : ReplayUHStruct(suffix, UHMineHooks(suffix, kStreamMinEsup),
                                      config_.threads, tracer, id)) {
      replay_pool_.insert(std::move(is));
    }
    std::vector<Itemset> singles, larger;
    for (const Itemset& is : replay_pool_) {
      (is.size() == 1 ? singles : larger).push_back(is);
    }
    MiningResult recount;
    {
      ScopedSpan span(tracer, "stream.recount", id);
      ufim::RecountExpectedCandidates(snap.view(), singles, larger,
                                      kStreamMinEsup * static_cast<double>(hi),
                                      config_.threads, recount);
      span.set_count(replay_pool_.size());
    }
    return SameFrequentSet(recount.ItemsetsOnly(), out.result);
  }

  WorkloadConfig config_;
  Input input_;
  std::vector<std::span<const ufim::Transaction>> batches_;
  std::vector<Job> jobs_;
  std::deque<MiningResult> batch_refs_;
  std::vector<bool> compacts_;  ///< per batch: did it compact (warm-up pass)
  std::size_t final_pool_ = 0;
  double view_build_ms_ = 0.0;

  /// The stream's miner, fresh for each pass over the stream.
  Result<std::unique_ptr<ufim::DeltaMiner>> miner_ =
      Status::Internal("no pass started");
  std::size_t cursor_ = 0;
  bool last_compacted_ = false;
  std::set<Itemset> replay_pool_;
  std::vector<BatchSample> timed_;
};

// ---------------------------------------------------------------------------
// cli-oneshot: the `ufim_cli mine <file>` path, in process, per job.

struct CliFamily {
  const char* name;
  std::size_t transactions;
  double min_esup;  ///< UH-Mine
  double min_sup;   ///< NDUH-Mine, at pft 0.9
};

constexpr CliFamily kCliFamilies[] = {
    {"gazelle", 20000, 0.001, 0.002},
    {"kosarak", 8000, 0.002, 0.004},
    {"quest", 4000, 0.015, 0.02},
};
constexpr std::size_t kCliTopK = 10;

class CliOneshot final : public ShuffledWorkload {
 public:
  using ShuffledWorkload::ShuffledWorkload;

  Status Setup() override {
    for (std::size_t f = 0; f < std::size(kCliFamilies); ++f) {
      const CliFamily& family = kCliFamilies[f];
      const std::string name = family.name;
      const std::uint64_t seed = DeriveSeed(config_.seed, 10 + f);
      ufim::DeterministicDatabase det;
      if (name == "gazelle") {
        det = ufim::MakeGazelleLike(family.transactions, seed);
      } else if (name == "kosarak") {
        det = ufim::MakeKosarakLike(family.transactions, seed);
      } else {
        UFIM_ASSIGN_OR_RETURN(det, ufim::MakeQuestT25I15(family.transactions, seed));
      }
      const UncertainDatabase generated =
          ufim::AssignGaussianProbabilities(det, 0.9, 0.1, seed + 1);
      UFIM_ASSIGN_OR_RETURN(
          Input in, WriteAndLoad(generated, name,
                                 config_.data_dir + "/cli-" + name + ".udb"));
      shapes_.push_back(in.shape);
      // The resident view is built from the generated database, not the
      // parsed one, so the listing check also covers the parser.
      BuildView(generated);

      const std::vector<std::pair<std::string, MiningTask>> tasks = {
          {"UH-Mine", ExpectedSupportParams{family.min_esup}},
          {"NDUH-Mine", ProbabilisticParams{family.min_sup, 0.9}},
          {"TopK", ufim::TopKParams{kCliTopK}},
      };
      for (const auto& [algorithm, task] : tasks) {
        UFIM_ASSIGN_OR_RETURN(const auto miner,
                              CreateMiner(algorithm, config_.threads));
        UFIM_ASSIGN_OR_RETURN(MiningResult ref, miner->Mine(*view_, task));
        ref.SortCanonical();
        listings_.push_back(ref.ToString());
        jobs_.push_back(CliJob(name + "/" + algorithm, algorithm, in, miner, task,
                               Keep(std::move(ref)), &listings_.back()));
      }
    }
    return WarmUp().status();
  }

  // The view build is a traced layer of every job here, not of setup.
  std::vector<Metric> LayerMetrics() const override { return {}; }

 private:
  Job CliJob(std::string kind, const std::string& algorithm, const Input& in,
             std::shared_ptr<const ufim::Miner> miner, MiningTask task,
             const MiningResult* reference, const std::string* listing) {
    Job job;
    job.kind = std::move(kind);
    job.algorithm = algorithm;
    job.reference = reference;
    job.reference_listing = listing;
    const std::string path = in.path;
    const std::uintmax_t bytes = in.shape.udb_bytes;
    job.run = [path, bytes, miner, task](Tracer* tracer,
                                         int id) -> Result<JobOutput> {
      Result<UncertainDatabase> db = Status::Internal("not parsed");
      {
        ScopedSpan span(tracer, "io.parse", id);
        db = ufim::ReadDataset(path);
        span.set_count(bytes);
      }
      UFIM_RETURN_IF_ERROR(db.status());
      std::optional<FlatView> view;
      {
        ScopedSpan span(tracer, "core.view_build", id);
        view.emplace(*db);
      }
      JobOutput out;
      UFIM_ASSIGN_OR_RETURN(out.result, TimedMine(tracer, id, out, [&] {
                              return miner->Mine(*view, task);
                            }));
      ScopedSpan span(tracer, "core.format", id);
      out.result.SortCanonical();
      out.listing = out.result.ToString();
      span.set_count(out.result.size());
      return out;
    };
    // Replays mine the resident view: the job's own parse and view-build
    // spans already attribute those layers.
    const std::shared_ptr<const FlatView> view = view_;
    const std::size_t threads = config_.threads;
    if (algorithm == "UH-Mine") {
      const double min_esup = std::get<ExpectedSupportParams>(task).min_esup;
      job.replay = [=](const JobOutput& out, Tracer* tracer, int id) {
        return SameFrequentSet(
            ReplayUHStruct(*view, UHMineHooks(*view, min_esup), threads, tracer, id),
            out.result);
      };
    } else if (algorithm == "NDUH-Mine") {
      const ProbabilisticParams params = std::get<ProbabilisticParams>(task);
      job.replay = [=](const JobOutput& out, Tracer* tracer, int id) {
        return SameFrequentSet(
            ReplayUHStruct(*view, NDUHMineHooks(*view, params), threads, tracer, id),
            out.result);
      };
    }
    return job;
  }

  std::deque<std::string> listings_;  // deque: Job::reference_listing stays valid
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       const WorkloadConfig& config) {
  if (name == "esup-quest") return std::make_unique<EsupQuest>(config);
  if (name == "prob-accident") return std::make_unique<ProbAccident>(config);
  if (name == "stream-kosarak") return std::make_unique<StreamKosarak>(config);
  if (name == "cli-oneshot") return std::make_unique<CliOneshot>(config);
  return nullptr;
}

}  // namespace perfbench
