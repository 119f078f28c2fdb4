// .udb text I/O: ReadDataset and WriteDataset on the three dataset
// families the perfbench cli-oneshot workload parses per job, at its
// sizes (Gazelle-like 20000, Kosarak-like 8000, QUEST T25I15 4000
// transactions; Gaussian(0.9, 0.1) probabilities).
//
//   BM_ReadDataset/<family>  — parse the file into an UncertainDatabase.
//   BM_WriteDataset/<family> — format and write the same database.
//
// bytes_per_second is the file size over the time. Results are recorded
// in BENCH_io.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "io/dataset_io.h"

namespace ufim::bench {
namespace {

enum Family { kGazelle, kKosarak, kQuest };

/// A database and its temp file, removed at exit.
struct UdbFile {
  UdbFile() = default;
  UdbFile(const UdbFile&) = delete;
  UdbFile& operator=(const UdbFile&) = delete;
  ~UdbFile() {
    if (!path.empty()) std::remove(path.c_str());
  }

  UncertainDatabase db;
  std::string path;
  std::int64_t bytes = 0;
};

/// The family's database, written once per process.
const UdbFile& FileOf(Family family) {
  static UdbFile files[3];
  UdbFile& f = files[family];
  if (!f.path.empty()) return f;
  DeterministicDatabase det;
  const char* name = "gazelle";
  if (family == kGazelle) {
    det = MakeGazelleLike(20000, 11);
  } else if (family == kKosarak) {
    det = MakeKosarakLike(8000, 12);
    name = "kosarak";
  } else {
    det = MakeQuestT25I15(4000, 13).value();
    name = "quest";
  }
  f.db = AssignGaussianProbabilities(det, 0.9, 0.1, 14);
  f.path = (std::filesystem::temp_directory_path() /
            (std::string("bench_dataset_io_") + name + ".udb"))
               .string();
  if (!WriteDataset(f.db, f.path).ok()) return f;
  f.bytes = static_cast<std::int64_t>(std::filesystem::file_size(f.path));
  return f;
}

void BM_ReadDataset(benchmark::State& state, Family family) {
  const UdbFile& f = FileOf(family);
  for (auto _ : state) {
    Result<UncertainDatabase> db = ReadDataset(f.path);
    if (!db.ok() || db->size() != f.db.size()) {
      state.SkipWithError("read back a different database");
      break;
    }
    benchmark::DoNotOptimize(db);
  }
  state.SetBytesProcessed(state.iterations() * f.bytes);
  state.counters["transactions"] = static_cast<double>(f.db.size());
}

void BM_WriteDataset(benchmark::State& state, Family family) {
  const UdbFile& f = FileOf(family);
  const std::string path = f.path + ".out";
  for (auto _ : state) {
    if (!WriteDataset(f.db, path).ok()) {
      state.SkipWithError("write failed");
      break;
    }
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() * f.bytes);
  state.counters["transactions"] = static_cast<double>(f.db.size());
}

BENCHMARK_CAPTURE(BM_ReadDataset, gazelle, kGazelle)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReadDataset, kosarak, kKosarak)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReadDataset, quest, kQuest)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WriteDataset, gazelle, kGazelle)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WriteDataset, kosarak, kKosarak)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WriteDataset, quest, kQuest)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ufim::bench

BENCHMARK_MAIN();
