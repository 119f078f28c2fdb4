// ufim command-line tool: generate benchmark datasets, inspect them, and
// mine them with any of the library's algorithms.
//
//   ufim_cli generate --family kosarak --n 5000 --prob gaussian:0.5,0.5
//       --seed 7 --out data.udb
//   ufim_cli stats data.udb
//   ufim_cli mine data.udb --algorithm UApriori --min-esup 0.01
//   ufim_cli mine data.udb --algorithm DCB --min-sup 0.05 --pft 0.9
//       --top 20 --rules 0.8
//   ufim_cli mine data.udb --algorithm TopK --k 20
//   ufim_cli mine data.udb --algorithm UApriori --min-esup 0.01
//       --threads 8 --shards 4
//   ufim_cli mine-stream data.udb --algorithm UApriori --min-esup 0.01
//       --batch 256 --compact-ratio 0.25
//
// Argument handling lives in common/cli_args.h (unit-tested): numeric
// flags are validated over their full token and unknown flags are
// rejected per subcommand, both with a non-zero exit.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "common/cli_args.h"
#include "common/run_context.h"
#include "core/delta_miner.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "core/postprocess.h"
#include "core/simd_intersect.h"
#include "eval/experiment.h"
#include "eval/stopwatch.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "io/dataset_io.h"

namespace ufim::cli {
namespace {

int Usage() {
  std::fprintf(stderr, R"(usage:
  ufim_cli generate --family {connect|accident|kosarak|gazelle|quest}
           --n <transactions> [--prob gaussian:<mean>,<var> | zipf:<skew>]
           [--seed <s>] --out <path>
  ufim_cli stats <path>
  ufim_cli mine <path> --algorithm <name>
           (--min-esup <r> | --min-sup <r> [--pft <p>] | --k <n>)
           [--threads <t>] [--shards <s>]
           [--kernel {auto|scalar|gallop|simd}]
           [--prefilter {off|bounds}]
           [--deadline-ms <ms>] [--memory-budget-mb <mb>]
           [--top <k>] [--closed] [--maximal] [--rules <min_conf>]
  ufim_cli mine-stream <path> --algorithm <name> --min-esup <r>
           [--batch <n>] [--compact-ratio <r>] [--compact-every <n>]
           [--threads <t>] [--kernel {auto|scalar|gallop|simd}]
           [--deadline-ms <ms>] [--memory-budget-mb <mb>]

  --threads: worker threads for the parallel mining paths
             (default: hardware concurrency; results are identical at
             every setting). --shards: partition the database into <s>
             transaction shards mined independently and merged exactly
             (expected-support algorithms only).
  --kernel:  force the posting-intersection kernel (default auto:
             galloping on skewed list lengths, SIMD when the CPU has
             it, scalar otherwise; results are identical under every
             kernel). Equivalent to setting UFIM_INTERSECT.
  --prefilter: candidate screening for the probabilistic miners
             (DP/DC/MCSampling). 'bounds' certifies obviously
             (in)frequent candidates from an O(1) two-sided bound
             cascade so fewer exact tails are computed; output is
             identical to 'off' (the default) by construction.
  --deadline-ms: soft wall-clock deadline for the mining run. The
             miners poll it cooperatively and a run that overshoots
             stops at the next checkpoint with a DeadlineExceeded
             error and a non-zero exit — no partial results, no
             leaked state.
  --memory-budget-mb: cooperative cap on mining-phase allocation
             growth (measured from the start of the run); exceeding
             it fails the run with ResourceExhausted the same way.

  mine-stream replays the dataset as an append-only stream in batches
  of --batch transactions (default 256) through the incremental
  DeltaMiner: each batch is mined as its own shard over the streaming
  delta layout and the running result is recounted exactly, compacting
  when the delta exceeds --compact-ratio units per base unit (default
  0.25; 0 compacts every batch). --compact-every <n> additionally forces
  an explicit compaction after every n batches (0, the default, never
  forces one); compaction only changes the storage layout, so the final
  listing is identical with and without it. Per-batch progress goes to
  stderr; the
  final listing on stdout is identical to the equivalent 'mine' run
  (expected-support algorithms only). Size batches so that
  min-esup * batch stays well above 1, or the per-batch shard
  threshold admits every observed itemset and the SON candidate pool
  explodes.
)");
  // The algorithm list comes from the registry, so newly registered
  // miners show up here without CLI edits.
  auto print_family = [](const char* label, TaskFamily family) {
    std::fprintf(stderr, "%s:", label);
    for (const std::string& name :
         MinerRegistry::Global().NamesOf(family, /*production_only=*/true)) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
  };
  print_family("expected-support algorithms", TaskFamily::kExpectedSupport);
  print_family("probabilistic algorithms   ", TaskFamily::kProbabilistic);
  print_family("top-k algorithms           ", TaskFamily::kTopK);
  return 2;
}

/// Prints the accessor's error and converts it to the fail exit: use as
///   std::size_t n; if (!OrFail(args.GetSize("n", 1000, &n, &err), err)) ...
bool OrFail(bool ok, const std::string& error) {
  if (!ok) std::fprintf(stderr, "%s\n", error.c_str());
  return ok;
}

/// Applies --kernel when present (shared by mine and mine-stream so the
/// accepted names can never drift apart); false + diagnostic on an
/// unknown name.
bool ApplyKernelFlag(const Args& args) {
  const char* kernel_name = args.Get("kernel");
  if (kernel_name == nullptr) return true;
  IntersectKernel kernel;
  if (!ParseIntersectKernel(kernel_name, &kernel)) {
    std::fprintf(stderr, "bad --kernel '%s' (auto|scalar|gallop|simd)\n",
                 kernel_name);
    return false;
  }
  SetIntersectKernel(kernel);
  return true;
}

/// Builds the cooperative run-limit token from --deadline-ms /
/// --memory-budget-mb (0 = unconstrained). Called right before mining so
/// the deadline clock and the memory baseline start at the run, not at
/// argument parsing or dataset load.
RunContext MakeRunLimits(std::size_t deadline_ms,
                         std::size_t memory_budget_mb) {
  RunContext run;
  if (deadline_ms > 0) {
    run.SetDeadlineAfterMillis(static_cast<std::int64_t>(deadline_ms));
  }
  if (memory_budget_mb > 0) {
    run.SetMemoryBudgetBytes(memory_budget_mb * (std::size_t{1} << 20));
  }
  return run;
}

/// A finite double spelled by all of `token` in `from_chars` syntax: a
/// '-' but no '+' sign, no trailing bytes, and no `nan` or `inf`.
bool ParseFinite(std::string_view token, double* out) {
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

int Generate(const Args& args) {
  std::string err;
  if (!args.Validate({.value_flags = {"family", "n", "prob", "seed", "out"},
                      .switches = {}},
                     &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return Usage();
  }
  const char* family = args.Get("family");
  const char* out_path = args.Get("out");
  if (family == nullptr || out_path == nullptr) return Usage();
  std::size_t n = 0, seed_raw = 0;
  if (!OrFail(args.GetSize("n", 1000, &n, &err), err) ||
      !OrFail(args.GetSize("seed", 42, &seed_raw, &err), err)) {
    return 2;
  }
  const std::uint64_t seed = seed_raw;

  DeterministicDatabase det;
  const std::string fam = family;
  if (fam == "connect") {
    det = MakeConnectLike(n, seed);
  } else if (fam == "accident") {
    det = MakeAccidentLike(n, seed);
  } else if (fam == "kosarak") {
    det = MakeKosarakLike(n, seed);
  } else if (fam == "gazelle") {
    det = MakeGazelleLike(n, seed);
  } else if (fam == "quest") {
    auto q = MakeQuestT25I15(n, seed);
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 1;
    }
    det = std::move(q).value();
  } else {
    std::fprintf(stderr, "unknown family '%s'\n", family);
    return Usage();
  }

  // Probability model: "gaussian:mean,var" (default 0.9,0.1) or "zipf:skew".
  const std::string_view prob =
      args.Get("prob") != nullptr ? args.Get("prob") : "gaussian:0.9,0.1";
  UncertainDatabase db;
  double mean = 0.0, var = 0.0, skew = 0.0;
  const std::size_t comma = prob.find(',');
  if (prob.starts_with("gaussian:") && comma != std::string_view::npos &&
      ParseFinite(prob.substr(9, comma - 9), &mean) &&
      ParseFinite(prob.substr(comma + 1), &var) && var >= 0.0) {
    db = AssignGaussianProbabilities(det, mean, var, seed + 1);
  } else if (prob.starts_with("zipf:") && ParseFinite(prob.substr(5), &skew)) {
    db = AssignZipfProbabilities(det, skew, seed + 1);
  } else {
    std::fprintf(stderr,
                 "bad --prob '%.*s': expected gaussian:<mean>,<var> with a "
                 "finite mean and a finite var >= 0, or zipf:<skew> with a "
                 "finite skew\n",
                 static_cast<int>(prob.size()), prob.data());
    return 2;
  }

  if (Status s = WriteDataset(db, out_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  DatabaseStats stats = db.ComputeStats();
  std::printf("wrote %zu transactions (%zu items, avg len %.2f) to %s\n",
              stats.num_transactions, stats.num_items, stats.avg_length,
              out_path);
  return 0;
}

int Stats(const Args& args) {
  std::string err;
  if (!args.Validate({.value_flags = {}, .switches = {}}, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return Usage();
  }
  if (args.positional.size() < 2) return Usage();
  auto db = ReadDataset(args.positional[1]);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  DatabaseStats s = db->ComputeStats();
  std::printf("transactions: %zu\nitems:        %zu\navg length:   %.3f\n"
              "density:      %.6f\nmean prob:    %.4f\n",
              s.num_transactions, s.num_items, s.avg_length, s.density,
              s.mean_probability);
  return 0;
}

/// Result post-processing knobs, parsed and validated up front so a bad
/// --top/--rules fails before minutes of mining, not after.
struct ShowOptions {
  bool closed = false;
  bool maximal = false;
  std::optional<std::size_t> top;
  std::optional<double> rules_min_conf;
};

void PrintResult(const MiningResult& result, const ShowOptions& show,
                 double millis) {
  MiningResult shown = result;
  if (show.closed) shown = FilterClosed(shown);
  if (show.maximal) shown = FilterMaximal(shown);
  if (show.top.has_value()) shown = TopK(shown, *show.top);
  // The wall time goes to stderr, so stdout is the same on every run.
  std::printf("# %zu frequent itemsets\n", result.size());
  std::fprintf(stderr, "# mined in %.1f ms\n", millis);
  std::printf("%s", shown.ToString().c_str());
  if (show.rules_min_conf.has_value()) {
    const double min_conf = *show.rules_min_conf;
    auto rules = GenerateRules(result, min_conf);
    std::printf("# %zu rules at confidence >= %.2f\n", rules.size(), min_conf);
    for (const AssociationRule& rule : rules) {
      std::printf("  %s\n", rule.ToString().c_str());
    }
  }
}

int Mine(const Args& args) {
  std::string err;
  if (!args.Validate(
          {.value_flags = {"algorithm", "min-esup", "min-sup", "pft", "k",
                           "threads", "shards", "kernel",
                           "prefilter", "deadline-ms", "memory-budget-mb",
                           "top", "rules"},
           .switches = {"closed", "maximal"}},
          &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return Usage();
  }
  if (args.positional.size() < 2 || args.Get("algorithm") == nullptr) {
    return Usage();
  }

  // Validate every numeric flag before touching the dataset.
  std::size_t num_threads = 0, num_shards = 1, k = 10;
  std::size_t deadline_ms = 0, memory_budget_mb = 0;
  double min_esup = 0.5, min_sup = 0.5, pft = 0.9;
  ShowOptions show;
  show.closed = args.Get("closed") != nullptr;
  show.maximal = args.Get("maximal") != nullptr;
  {
    std::size_t top = 10;
    double rules_conf = 0.8;
    if (!OrFail(args.GetSize("threads", 0, &num_threads, &err), err) ||
        !OrFail(args.GetSize("shards", 1, &num_shards, &err), err) ||
        !OrFail(args.GetSize("deadline-ms", 0, &deadline_ms, &err), err) ||
        !OrFail(args.GetSize("memory-budget-mb", 0, &memory_budget_mb, &err),
                err) ||
        !OrFail(args.GetSize("k", 10, &k, &err), err) ||
        !OrFail(args.GetDouble("min-esup", 0.5, &min_esup, &err), err) ||
        !OrFail(args.GetDouble("min-sup", 0.5, &min_sup, &err), err) ||
        !OrFail(args.GetDouble("pft", 0.9, &pft, &err), err) ||
        !OrFail(args.GetSize("top", 10, &top, &err), err) ||
        !OrFail(args.GetDouble("rules", 0.8, &rules_conf, &err), err)) {
      return 2;
    }
    if (args.Get("top") != nullptr) show.top = top;
    if (args.Get("rules") != nullptr) show.rules_min_conf = rules_conf;
  }

  auto db = ReadDataset(args.positional[1]);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  const std::string algo_name = args.Get("algorithm");

  // One code path for both problem definitions: look the algorithm up in
  // the registry, assemble the matching MiningTask, run it through the
  // unified Miner facade over a FlatView built once.
  const MinerEntry* entry = MinerRegistry::Global().Find(algo_name);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", algo_name.c_str());
    return Usage();
  }
  MiningTask task;
  if (entry->family == TaskFamily::kExpectedSupport) {
    if (args.Get("min-esup") == nullptr) {
      std::fprintf(stderr, "%s needs --min-esup\n", algo_name.c_str());
      return Usage();
    }
    ExpectedSupportParams params;
    params.min_esup = min_esup;
    task = params;
  } else if (entry->family == TaskFamily::kProbabilistic) {
    if (args.Get("min-sup") == nullptr) {
      std::fprintf(stderr, "%s needs --min-sup\n", algo_name.c_str());
      return Usage();
    }
    ProbabilisticParams params;
    params.min_sup = min_sup;
    params.pft = pft;
    task = params;
  } else {
    if (args.Get("k") == nullptr) {
      std::fprintf(stderr, "%s needs --k\n", algo_name.c_str());
      return Usage();
    }
    TopKParams params;
    params.k = k;
    task = params;
  }

  // Execution configuration: every algorithm, threaded and optionally
  // sharded, goes through the same registry-driven experiment path.
  if (!ApplyKernelFlag(args)) return Usage();
  MinerOptions options;
  options.num_threads = num_threads;  // 0 = all hardware threads
  if (const char* prefilter_name = args.Get("prefilter")) {
    if (!ParsePrefilterMode(prefilter_name, &options.prefilter)) {
      std::fprintf(stderr, "bad --prefilter '%s' (off|bounds)\n",
                   prefilter_name);
      return Usage();
    }
    if (entry->family != TaskFamily::kProbabilistic) {
      std::fprintf(stderr, "--prefilter applies to probabilistic algorithms only\n");
      return Usage();
    }
  }
  if (num_shards > 1 && entry->family != TaskFamily::kExpectedSupport) {
    std::fprintf(stderr, "--shards applies to expected-support algorithms only\n");
    return Usage();
  }
  FlatView view(*db);
  options.run_context = MakeRunLimits(deadline_ms, memory_budget_mb);
  auto m = RunRegisteredExperiment(algo_name, view, task, options, num_shards);
  if (!m.ok()) {
    std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
    return 1;
  }
  PrintResult(m->result, show, m->millis);
  return 0;
}

int MineStream(const Args& args) {
  std::string err;
  if (!args.Validate({.value_flags = {"algorithm", "min-esup", "batch",
                                      "compact-ratio", "compact-every",
                                      "threads", "kernel",
                                      "deadline-ms", "memory-budget-mb"},
                      .switches = {}},
                     &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return Usage();
  }
  if (args.positional.size() < 2 || args.Get("algorithm") == nullptr) {
    return Usage();
  }

  // Validate every numeric flag before touching the dataset.
  std::size_t num_threads = 0, batch_size = 256;
  std::size_t deadline_ms = 0, memory_budget_mb = 0, compact_every = 0;
  double min_esup = 0.5, compact_ratio = 0.25;
  if (!OrFail(args.GetSize("threads", 0, &num_threads, &err), err) ||
      !OrFail(args.GetSize("deadline-ms", 0, &deadline_ms, &err), err) ||
      !OrFail(args.GetSize("memory-budget-mb", 0, &memory_budget_mb, &err),
              err) ||
      !OrFail(args.GetSize("batch", 256, &batch_size, &err), err) ||
      !OrFail(args.GetSize("compact-every", 0, &compact_every, &err), err) ||
      !OrFail(args.GetDouble("min-esup", 0.5, &min_esup, &err), err) ||
      !OrFail(args.GetDouble("compact-ratio", 0.25, &compact_ratio, &err),
              err)) {
    return 2;
  }
  if (args.Get("min-esup") == nullptr) {
    std::fprintf(stderr, "mine-stream needs --min-esup\n");
    return Usage();
  }
  if (batch_size == 0) {
    std::fprintf(stderr, "--batch must be >= 1\n");
    return 2;
  }
  if (compact_ratio < 0.0) {
    std::fprintf(stderr, "--compact-ratio must be >= 0\n");
    return 2;
  }
  if (!ApplyKernelFlag(args)) return Usage();

  auto db = ReadDataset(args.positional[1]);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }

  ExpectedSupportParams params;
  params.min_esup = min_esup;
  MinerOptions options;
  options.num_threads = num_threads;  // 0 = all hardware threads
  options.run_context = MakeRunLimits(deadline_ms, memory_budget_mb);
  CompactionPolicy policy;
  policy.max_delta_ratio = compact_ratio;
  auto miner = MakeDeltaMiner(args.Get("algorithm"), params, options, policy);
  if (!miner.ok()) {
    std::fprintf(stderr, "%s\n", miner.status().ToString().c_str());
    return miner.status().code() == StatusCode::kNotFound ? Usage() : 1;
  }

  // Replay the dataset as an append-only stream. Progress lines go to
  // stderr so stdout carries exactly the final listing — diffable
  // against the equivalent one-shot 'mine' run.
  const std::vector<Transaction>& txns = db->transactions();
  Stopwatch watch;
  Result<MiningResult> result = Status::Internal("empty stream");
  std::size_t batches = 0;
  for (std::size_t lo = 0; lo == 0 || lo < txns.size(); lo += batch_size) {
    const std::size_t hi = std::min(lo + batch_size, txns.size());
    result = miner.value()->MineNext(
        std::span<const Transaction>(txns.data() + lo, hi - lo));
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    ++batches;
    // Interleaved explicit compactions: a layout change only, so the
    // final stdout listing is identical with and without the flag (the
    // Release CI smoke diffs exactly that).
    if (compact_every > 0 && batches % compact_every == 0) {
      miner.value()->Compact();
    }
    std::fprintf(stderr,
                 "batch %zu: +%zu txns (%zu total), %zu frequent, "
                 "%zu delta txns, %zu compactions\n",
                 batches, hi - lo, miner.value()->view().num_transactions(),
                 result.value().size(),
                 miner.value()->view().delta_transactions(),
                 miner.value()->view().compactions());
    if (hi >= txns.size()) break;
  }
  PrintResult(result.value(), ShowOptions{}, watch.ElapsedMillis());
  return 0;
}

/// Surfaces swallowed stdout write errors: the result listings go out
/// through printf, whose return values the commands ignore — so before
/// this check, `mine > out.txt` onto a full disk (or a closed pipe)
/// truncated the listing and still exited 0. Flush + ferror catches
/// every buffered failure at once, turning it into a diagnostic and a
/// non-zero exit. Found by the PR-9 ignored-Status audit.
int CheckedExit(int code) {
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr, "error: writing to stdout failed\n");
    return code == 0 ? 1 : code;
  }
  return code;
}

int Main(int argc, char** argv) {
  std::string err;
  std::optional<Args> args =
      Args::Parse(argc, argv, /*switches=*/{"closed", "maximal"}, &err);
  if (!args.has_value()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return Usage();
  }
  if (args->positional.empty()) return Usage();
  const std::string& command = args->positional[0];
  if (command == "generate") return CheckedExit(Generate(*args));
  if (command == "stats") return CheckedExit(Stats(*args));
  if (command == "mine") return CheckedExit(Mine(*args));
  if (command == "mine-stream") return CheckedExit(MineStream(*args));
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return Usage();
}

}  // namespace
}  // namespace ufim::cli

int main(int argc, char** argv) { return ufim::cli::Main(argc, argv); }
