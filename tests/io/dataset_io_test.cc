#include "io/dataset_io.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"

namespace ufim {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }
};

TEST_F(DatasetIoTest, FormatAndParseRoundTrip) {
  Transaction t({{0, 0.8}, {5, 0.25}, {17, 1.0}});
  std::string line = FormatTransactionLine(t);
  Result<Transaction> parsed = ParseTransactionLine(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, t);
}

TEST_F(DatasetIoTest, ParseRejectsMalformedUnits) {
  EXPECT_FALSE(ParseTransactionLine("abc").ok());
  EXPECT_FALSE(ParseTransactionLine("1:").ok());
  EXPECT_FALSE(ParseTransactionLine(":0.5").ok());
  EXPECT_FALSE(ParseTransactionLine("1:0.5x").ok());
  EXPECT_FALSE(ParseTransactionLine("x:0.5").ok());
  EXPECT_FALSE(ParseTransactionLine("1:1.5").ok());
  EXPECT_FALSE(ParseTransactionLine("1:-0.2").ok());
  // NaN compares false against both range ends; it must not slip through.
  EXPECT_FALSE(ParseTransactionLine("0:nan 1:0.5").ok());
  EXPECT_FALSE(ParseTransactionLine("0:inf").ok());
  EXPECT_FALSE(ParseTransactionLine("0:-inf").ok());
}

TEST_F(DatasetIoTest, ParseRejectsSignedHexAndSubnormalProbabilities) {
  // strtod took a '+' sign and hex floats; the writer never emits them.
  EXPECT_FALSE(ParseTransactionLine("0:+0.5").ok());
  EXPECT_FALSE(ParseTransactionLine("0:0x1p-1").ok());
  // Subnormal, and underflowing to zero.
  EXPECT_FALSE(ParseTransactionLine("0:1e-310").ok());
  EXPECT_FALSE(ParseTransactionLine("0:4.9e-324").ok());
  EXPECT_FALSE(ParseTransactionLine("0:1e-400").ok());
  // The smallest normal double and a signed zero still parse.
  Result<Transaction> tiny = ParseTransactionLine("0:2.2250738585072014e-308 1:-0");
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  ASSERT_EQ(tiny->size(), 1u);  // the zero unit is dropped
  EXPECT_EQ((*tiny)[0].prob, 2.2250738585072014e-308);
}

TEST_F(DatasetIoTest, ParseAcceptsStrtodDecimalForms) {
  Result<Transaction> parsed = ParseTransactionLine("0:.5 1:1. 2:5e-1 3:007E-3 04:0");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 4u);
  EXPECT_EQ((*parsed)[0].prob, 0.5);
  EXPECT_EQ((*parsed)[1].prob, 1.0);
  EXPECT_EQ((*parsed)[2].prob, 0.5);
  EXPECT_EQ((*parsed)[3].prob, 0.007);
}

TEST_F(DatasetIoTest, ParseSplitsOnEveryCLocaleSpace) {
  Result<Transaction> parsed = ParseTransactionLine(" 0:0.5\t1:0.25\v2:1\f3:0.5\r");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), 4u);
  // Any other byte is part of a token.
  EXPECT_FALSE(ParseTransactionLine(std::string("0:0.5\0", 6)).ok());
  EXPECT_FALSE(ParseTransactionLine("0:0.5 #1:0.5").ok());
}

TEST_F(DatasetIoTest, ParseRejectsDuplicateItems) {
  Result<Transaction> dup = ParseTransactionLine("0:0.5 0:0.6");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.status().message().find("duplicate item 0"), std::string::npos)
      << dup.status().message();
  // Out of order but distinct is fine; out of order and repeated is not.
  Result<Transaction> unsorted = ParseTransactionLine("7:0.5 3:0.25 5:1");
  ASSERT_TRUE(unsorted.ok());
  EXPECT_EQ((*unsorted)[0].item, 3u);
  Result<Transaction> late = ParseTransactionLine("7:0.5 3:0.25 9:0 7:1");
  ASSERT_FALSE(late.ok());
  EXPECT_NE(late.status().message().find("duplicate item 7"), std::string::npos);
}

TEST_F(DatasetIoTest, FormatMatchesPrintfPercent17g) {
  Rng rng(20240917);
  std::vector<double> values = {1.0, 0.1, 0.9};
  for (int i = 0; i < 10000; ++i) {
    // (0, 1], spread over binary exponents so that both %g notations occur.
    const double u = 1.0 - rng.Uniform01();
    values.push_back(i % 2 == 0 ? u : std::ldexp(u, -static_cast<int>(rng.UniformInt(0, 80))));
  }
  char expected[64];
  for (const double p : values) {
    const ItemId item = static_cast<ItemId>(rng.UniformInt(0, 4294967295u));
    std::snprintf(expected, sizeof(expected), "%u:%.17g", item, p);
    ASSERT_EQ(FormatTransactionLine(Transaction({{item, p}})), expected);
  }
}

TEST_F(DatasetIoTest, ParseRejectsItemIdsOutsideItemIdRange) {
  // strtoul accepts both and the cast to ItemId would wrap them.
  EXPECT_FALSE(ParseTransactionLine("4294967296:0.5").ok());
  EXPECT_FALSE(ParseTransactionLine("-1:0.5 1:0.5").ok());
  EXPECT_FALSE(ParseTransactionLine("+1:0.5").ok());
  EXPECT_FALSE(ParseTransactionLine("99999999999999999999999:0.5").ok());
  Result<Transaction> widest = ParseTransactionLine("4294967295:0.5");
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ((*widest)[0].item, 4294967295u);
}

TEST_F(DatasetIoTest, ParseAcceptsEmptyLineAsEmptyTransaction) {
  Result<Transaction> parsed = ParseTransactionLine("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST_F(DatasetIoTest, WriteReadRoundTripPreservesDatabase) {
  UncertainDatabase db = MakePaperTable1();
  const std::string path = TempPath("table1.udb");
  ASSERT_TRUE(WriteDataset(db, path).ok());
  Result<UncertainDatabase> loaded = ReadDataset(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ((*loaded)[i], db[i]) << "transaction " << i;
  }
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, EveryGeneratorFamilyRoundTripsThroughAFile) {
  // Zipf probabilities drop whole transactions to empty (rank 1 is
  // probability 0); those must come back as empty transactions, not
  // vanish, or the transaction count and every min_esup threshold move.
  struct Family {
    const char* name;
    DeterministicDatabase det;
    double min_esup;  ///< low enough that UApriori reports itemsets
  };
  auto quest = MakeQuestT25I15(300, 5);
  ASSERT_TRUE(quest.ok());
  const Family families[] = {
      {"connect", MakeConnectLike(300, 5), 0.3},
      {"accident", MakeAccidentLike(300, 5), 0.1},
      {"kosarak", MakeKosarakLike(300, 5), 0.01},
      {"gazelle", MakeGazelleLike(300, 5), 0.005},
      {"quest", *quest, 0.02},
  };
  struct Model {
    const char* name;
    UncertainDatabase (*assign)(const DeterministicDatabase&);
  };
  const Model models[] = {
      {"gaussian:0.9,0.1",
       [](const DeterministicDatabase& det) {
         return AssignGaussianProbabilities(det, 0.9, 0.1, 6);
       }},
      {"zipf:3",
       [](const DeterministicDatabase& det) {
         return AssignZipfProbabilities(det, 3.0, 6);
       }},
      {"zipf:0.1",
       [](const DeterministicDatabase& det) {
         return AssignZipfProbabilities(det, 0.1, 6);
       }},
  };
  const std::string path = TempPath("family.udb");
  for (const Family& family : families) {
    for (const Model& model : models) {
      SCOPED_TRACE(std::string(family.name) + " " + model.name);
      const UncertainDatabase db = model.assign(family.det);
      ASSERT_TRUE(WriteDataset(db, path).ok());
      Result<UncertainDatabase> loaded = ReadDataset(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_EQ(loaded->size(), db.size());
      for (std::size_t t = 0; t < db.size(); ++t) {
        ASSERT_EQ((*loaded)[t], db[t]) << "transaction " << t;
      }

      const ExpectedSupportParams params{family.min_esup};
      auto miner = MinerRegistry::Global().Create("UApriori");
      Result<MiningResult> want = miner->Mine(FlatView(db), params);
      Result<MiningResult> got = miner->Mine(FlatView(*loaded), params);
      ASSERT_TRUE(want.ok() && got.ok());
      want->SortCanonical();
      got->SortCanonical();
      ASSERT_EQ(got->size(), want->size());
      for (std::size_t i = 0; i < want->size(); ++i) {
        const FrequentItemset& a = want->itemsets()[i];
        const FrequentItemset& b = got->itemsets()[i];
        EXPECT_EQ(b.itemset, a.itemset);
        EXPECT_EQ(b.expected_support, a.expected_support);
        EXPECT_EQ(b.variance, a.variance);
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, ReadSkipsCommentsAndBlankLines) {
  const std::string path = TempPath("comments.udb");
  {
    std::ofstream out(path);
    out << "# header comment\n\n0:0.5 1:0.25\n\n# trailing\n2:1\n";
  }
  Result<UncertainDatabase> loaded = ReadDataset(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_DOUBLE_EQ((*loaded)[0].ProbabilityOf(1), 0.25);
  EXPECT_DOUBLE_EQ((*loaded)[1].ProbabilityOf(2), 1.0);
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, ReadReportsLineNumberOnError) {
  const std::string path = TempPath("broken.udb");
  {
    std::ofstream out(path);
    out << "0:0.5\n1:bad\n";
  }
  Result<UncertainDatabase> loaded = ReadDataset(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, ReadRejectsOutOfRangeItemIdWithLineNumber) {
  const std::string path = TempPath("wide_id.udb");
  {
    std::ofstream out(path);
    out << "4294967296:0.5\n0:0.4\n";
  }
  Result<UncertainDatabase> loaded = ReadDataset(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loaded.status().message().rfind("line 1: ", 0), 0u)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, ReadRejectsDuplicateItemWithLineNumber) {
  const std::string path = TempPath("dup.udb");
  {
    std::ofstream out(path);
    out << "0:0.4\n# note\n0:0.5 0:0.6\n";
  }
  Result<UncertainDatabase> loaded = ReadDataset(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loaded.status().message().rfind("line 3: duplicate item 0", 0), 0u)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, ReadToleratesCrlfAndMissingFinalNewline) {
  const std::string path = TempPath("crlf.udb");
  {
    std::ofstream out(path, std::ios::binary);
    out << "# crlf\r\n0:0.5 1:0.25\r\n2:1";
  }
  Result<UncertainDatabase> loaded = ReadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0], Transaction({{0, 0.5}, {1, 0.25}}));
  EXPECT_EQ((*loaded)[1], Transaction({{2, 1.0}}));
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, ReadCarriesLinesAcrossBlocks) {
  // One line three blocks long between short ones, so lines straddle
  // every block boundary, and the long line's number is checked.
  Transaction wide;
  {
    std::vector<ProbItem> units;
    for (ItemId i = 0; units.size() * 8 < 3 * kDatasetReadBlockBytes; ++i) {
      units.push_back({i, 0.5});
    }
    wide = Transaction(std::move(units));
  }
  std::vector<Transaction> txns;
  for (ItemId i = 0; i < 20000; ++i) {
    txns.push_back(i == 7000 ? wide : Transaction({{i, 0.25}, {i + 1, 0.75}}));
  }
  const UncertainDatabase db(txns);
  const std::string path = TempPath("long_line.udb");
  ASSERT_TRUE(WriteDataset(db, path).ok());
  Result<UncertainDatabase> loaded = ReadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->transactions(), db.transactions());
  {
    std::ofstream out(path, std::ios::app);
    out << FormatTransactionLine(wide) << " 0:0.5\n";
  }
  loaded = ReadDataset(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message().rfind("line 20001: duplicate item 0", 0), 0u)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, ReadDirectoryIsIOError) {
  // fopen succeeds on a directory; the read is what fails.
  const std::string dir = TempPath("udb_dir");
  std::filesystem::create_directories(dir);
  Result<UncertainDatabase> loaded = ReadDataset(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::filesystem::remove(dir);
}

TEST_F(DatasetIoTest, ReadMissingFileIsIOError) {
  Result<UncertainDatabase> loaded = ReadDataset("/nonexistent/nowhere.udb");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(DatasetIoTest, WriteToUnwritablePathIsIOError) {
  EXPECT_EQ(WriteDataset(MakePaperTable1(), "/nonexistent/dir/file.udb").code(),
            StatusCode::kIOError);
}

TEST_F(DatasetIoTest, ProbabilityPrecisionSurvivesRoundTrip) {
  // %.17g must reproduce doubles bit-exactly.
  Transaction t({{1, 0.1 + 0.2}, {2, 1.0 / 3.0}});
  Result<Transaction> parsed = ParseTransactionLine(FormatTransactionLine(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)[0].prob, 0.1 + 0.2);
  EXPECT_EQ((*parsed)[1].prob, 1.0 / 3.0);
}

}  // namespace
}  // namespace ufim
