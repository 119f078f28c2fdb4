#include "io/dataset_io.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "gen/benchmark_datasets.h"

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
