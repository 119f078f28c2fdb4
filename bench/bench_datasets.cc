#include "bench_datasets.h"

#include <map>

#include "gen/benchmark_datasets.h"
#include "gen/probability.h"

namespace ufim::bench {

namespace {

constexpr std::uint64_t kSeed = 20120827;  // VLDB'12 conference date

// One instance per requested size: a binary that sweeps several sizes of
// one family gets each of them, not whichever size it asked for first.
// Each family passes its own lambda type, so each gets its own cache;
// std::map nodes never move, so the returned references stay valid.
template <typename Make>
const UncertainDatabase& Memoized(std::size_t n, Make make) {
  static auto* cache = new std::map<std::size_t, UncertainDatabase>();
  auto it = cache->find(n);
  if (it == cache->end()) it = cache->emplace(n, make()).first;
  return it->second;
}

}  // namespace

const UncertainDatabase& ConnectDb(std::size_t n) {
  return Memoized(n, [n] {
    return AssignGaussianProbabilities(MakeConnectLike(n, kSeed), 0.95, 0.05,
                                       kSeed + 1);
  });
}

const UncertainDatabase& AccidentDb(std::size_t n) {
  return Memoized(n, [n] {
    return AssignGaussianProbabilities(MakeAccidentLike(n, kSeed), 0.5, 0.5,
                                       kSeed + 2);
  });
}

const UncertainDatabase& KosarakDb(std::size_t n) {
  return Memoized(n, [n] {
    return AssignGaussianProbabilities(MakeKosarakLike(n, kSeed), 0.5, 0.5,
                                       kSeed + 3);
  });
}

const UncertainDatabase& GazelleDb(std::size_t n) {
  return Memoized(n, [n] {
    return AssignGaussianProbabilities(MakeGazelleLike(n, kSeed), 0.95, 0.05,
                                       kSeed + 4);
  });
}

UncertainDatabase QuestDb(std::size_t n) {
  auto det = MakeQuestT25I15(n, kSeed);
  // The fixed configuration is valid by construction; an error here is a
  // programming bug, so fail loudly via empty database + stderr.
  if (!det.ok()) {
    std::fprintf(stderr, "QuestDb: %s\n", det.status().ToString().c_str());
    return UncertainDatabase();
  }
  return AssignGaussianProbabilities(*det, 0.9, 0.1, kSeed + 5);
}

UncertainDatabase ZipfDenseDb(double skew, std::size_t n) {
  return AssignZipfProbabilities(MakeConnectLike(n, kSeed), skew, kSeed + 6);
}

const UncertainDatabase& DominantChainDb(std::size_t n, std::size_t chain_len) {
  static const UncertainDatabase& db = *new UncertainDatabase([](
      std::size_t num, std::size_t len) {
    std::vector<Transaction> txns;
    txns.reserve(num);
    for (std::size_t t = 0; t < num; ++t) {
      std::vector<ProbItem> units;
      const std::size_t m = 1 + (t % len);
      units.reserve(m);
      for (std::size_t i = 0; i < m; ++i) {
        ProbItem unit;
        unit.item = static_cast<ItemId>(i);
        unit.prob = 0.55 + 0.05 * static_cast<double>((t + 3 * i) % 8);
        units.push_back(unit);
      }
      txns.push_back(Transaction(std::move(units)));
    }
    return txns;
  }(n, chain_len));
  return db;
}

}  // namespace ufim::bench
