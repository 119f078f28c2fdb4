// Seeded corruption sweep over the .udb reader.
//
// Each case starts from a generated, valid file, corrupts it, and reads
// it back twice: with ReadDataset, and with the reference reader below,
// which is the line-at-a-time getline + istringstream + strtod parser
// plus the documented tightenings (duplicate items, a leading '+' and
// hex floats are rejected). The two must agree: either both reject with
// the same `line N:`, or both accept the same database, which must then
// pass Validate().

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "io/dataset_io.h"

namespace ufim {
namespace {

/// Why the reference rejects a token, or nullptr if it accepts it.
const char* ReferenceUnit(const std::string& token, ProbItem& unit) {
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= token.size()) {
    return "malformed unit";
  }
  if (token[0] < '0' || token[0] > '9') return "malformed item id";
  errno = 0;
  char* end = nullptr;
  const unsigned long item = std::strtoul(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + colon) return "malformed item id";
  if (item > std::numeric_limits<ItemId>::max()) return "item id out of range";
  const std::string prob_text = token.substr(colon + 1);
  if (prob_text[0] == '+' || prob_text.find_first_of("xX") != std::string::npos) {
    return "malformed probability";
  }
  errno = 0;
  const double prob = std::strtod(prob_text.c_str(), &end);
  if (errno != 0 || end != prob_text.c_str() + prob_text.size()) {
    return "malformed probability";
  }
  if (!(prob >= 0.0 && prob <= 1.0)) return "probability out of [0,1]";
  unit = ProbItem{static_cast<ItemId>(item), prob};
  return nullptr;
}

Result<UncertainDatabase> ReferenceRead(const std::string& bytes) {
  std::istringstream in(bytes);
  std::vector<Transaction> txns;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto reject = [&](const char* why) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": " + why);
    };
    std::istringstream tokens(line);
    std::string token;
    std::vector<ProbItem> units;
    while (tokens >> token) {
      ProbItem unit;
      if (const char* why = ReferenceUnit(token, unit)) return reject(why);
      units.push_back(unit);
    }
    std::vector<ItemId> items;
    for (const ProbItem& u : units) items.push_back(u.item);
    std::sort(items.begin(), items.end());
    if (std::adjacent_find(items.begin(), items.end()) != items.end()) {
      return reject("duplicate item");
    }
    txns.emplace_back(std::move(units));
  }
  return UncertainDatabase(std::move(txns));
}

/// "line N:" of a reader error.
std::string LinePrefix(const Status& s) {
  const std::string& m = s.message();
  return m.substr(0, m.find(':') + 1);
}

class DatasetIoCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const UncertainDatabase db =
        AssignGaussianProbabilities(MakeKosarakLike(150, 7), 0.5, 0.5, 8);
    for (const Transaction& t : db) {
      valid_ += FormatTransactionLine(t);
      valid_ += '\n';
    }
  }

  /// Reads `bytes` both ways and checks the readers agree.
  void ExpectAgreement(const std::string& bytes, const std::string& what) {
    SCOPED_TRACE(what);
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    const Result<UncertainDatabase> expected = ReferenceRead(bytes);
    const Result<UncertainDatabase> actual = ReadDataset(path_);
    if (!expected.ok()) {
      ++rejected_;
      ASSERT_FALSE(actual.ok()) << "accepted; reference: "
                                << expected.status().ToString();
      EXPECT_EQ(actual.status().code(), StatusCode::kInvalidArgument)
          << actual.status().ToString();
      EXPECT_EQ(LinePrefix(actual.status()), LinePrefix(expected.status()))
          << actual.status().ToString() << " vs " << expected.status().ToString();
      return;
    }
    ++accepted_;
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual->transactions(), expected->transactions());
    EXPECT_TRUE(actual->Validate().ok()) << actual->Validate().ToString();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// A random byte offset into `s`, the end included.
  static std::size_t Offset(Rng& rng, const std::string& s) {
    return rng.UniformInt(0, s.size());
  }

  /// Replaces the item id (or, with `item` false, the probability) of a
  /// random unit with `text`.
  static std::string ReplaceToken(Rng& rng, std::string s, bool item,
                                  const std::string& text) {
    std::vector<std::size_t> colons;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] == ':') colons.push_back(i);
    }
    const std::size_t c = colons[rng.UniformInt(0, colons.size() - 1)];
    if (item) {
      std::size_t b = c;
      while (b > 0 && s[b - 1] != ' ' && s[b - 1] != '\n') --b;
      return s.replace(b, c - b, text);
    }
    const std::size_t e = s.find_first_of(" \n", c);
    return s.replace(c + 1, e - c - 1, text);
  }

  static std::string valid_;
  // One file per test: ctest runs the cases of this suite concurrently.
  std::string path_ = testing::TempDir() + "/corrupt_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                      ".udb";
  int accepted_ = 0;
  int rejected_ = 0;
};

std::string DatasetIoCorruptionTest::valid_;

TEST_F(DatasetIoCorruptionTest, ValidFileReadsBack) {
  ExpectAgreement(valid_, "unchanged");
  EXPECT_EQ(accepted_, 1);
}

TEST_F(DatasetIoCorruptionTest, Truncation) {
  Rng rng(101);
  for (int i = 0; i < 60; ++i) {
    const std::size_t at = Offset(rng, valid_);
    ExpectAgreement(valid_.substr(0, at), "truncated at " + std::to_string(at));
  }
  EXPECT_GT(accepted_, 0);
  EXPECT_GT(rejected_, 0);
}

TEST_F(DatasetIoCorruptionTest, ByteFlips) {
  Rng rng(202);
  for (int i = 0; i < 200; ++i) {
    std::string s = valid_;
    const int flips = static_cast<int>(rng.UniformInt(1, 3));
    std::string what = "flips";
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.UniformInt(0, s.size() - 1);
      const char to = static_cast<char>(rng.UniformInt(0, 255));
      s[at] = to;
      what += ' ';
      what += std::to_string(at);
      what += '=';
      what += std::to_string(to & 0xff);
    }
    ExpectAgreement(s, what);
  }
  EXPECT_GT(accepted_, 0);
  EXPECT_GT(rejected_, 0);
}

TEST_F(DatasetIoCorruptionTest, HostileItemIds) {
  const char* const ids[] = {"4294967295", "4294967296", "18446744073709551615",
                             "18446744073709551616", "99999999999999999999999",
                             "-1", "+1", "-0", "0x10", "00000000000000000000007",
                             "1e3", "1.0", ""};
  Rng rng(303);
  for (const char* id : ids) {
    for (int i = 0; i < 4; ++i) {
      ExpectAgreement(ReplaceToken(rng, valid_, true, id), std::string("id ") + id);
    }
  }
  EXPECT_GT(accepted_, 0);
  EXPECT_GT(rejected_, 0);
}

TEST_F(DatasetIoCorruptionTest, HostileProbabilities) {
  const char* const probs[] = {
      "nan", "NaN", "nan(0x1)", "inf", "-inf", "Infinity", "1e-310",
      "4.9e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
      "1e-400", "-1e-400", "1e400", "+0.5", "+0", "0x1p-1", "-0x0", "0X.8p0",
      "-0", "-0.0", "0e+5", "0e-999", ".5", "1.", "1e", "1e+", "--0.5",
      "0.5.5", "1.0000000000000001", "1.0000000000000002", "0,5", ""};
  Rng rng(404);
  for (const char* prob : probs) {
    for (int i = 0; i < 4; ++i) {
      ExpectAgreement(ReplaceToken(rng, valid_, false, prob),
                      std::string("prob ") + prob);
    }
  }
  EXPECT_GT(accepted_, 0);
  EXPECT_GT(rejected_, 0);
}

TEST_F(DatasetIoCorruptionTest, LineShapes) {
  Rng rng(505);
  std::string crlf;
  for (const char c : valid_) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  ExpectAgreement(crlf, "CRLF endings");
  ExpectAgreement(valid_.substr(0, valid_.size() - 1), "no final newline");
  ExpectAgreement(crlf.substr(0, crlf.size() - 2), "CRLF, no final newline");
  ExpectAgreement("", "empty file");
  ExpectAgreement("\n\n\n", "only newlines");
  const char* const inserts[] = {"\n", " \n", "\t \r\n", "\r\n", "\v\f\n",
                                 "# comment 0:nan\n", "#\n", " # comment\n",
                                 "\t#0:0.5\n", "0:0.5 # tail\n", "0:0.5#\n"};
  for (const char* insert : inserts) {
    for (int i = 0; i < 4; ++i) {
      // At a line start, so the insert is a line of its own.
      std::size_t at = Offset(rng, valid_);
      at = at == 0 ? 0 : valid_.rfind('\n', at - 1) + 1;
      std::string s = valid_;
      ExpectAgreement(s.insert(at, insert), "line '" + std::string(insert) + "'");
    }
  }
  ExpectAgreement(valid_ + std::string("0:0.5\0 1:0.5\n", 13), "NUL byte");
  EXPECT_GT(accepted_, 0);
  EXPECT_GT(rejected_, 0);
}

TEST_F(DatasetIoCorruptionTest, LineLongerThanReadBlock) {
  std::string wide;
  for (ItemId i = 0; wide.size() < 2 * kDatasetReadBlockBytes + 17; ++i) {
    wide += std::to_string(i) + ":0.5 ";
  }
  Rng rng(606);
  for (int i = 0; i < 4; ++i) {
    std::size_t at = Offset(rng, valid_);
    at = at == 0 ? 0 : valid_.rfind('\n', at - 1) + 1;
    std::string s = valid_;
    ExpectAgreement(s.insert(at, wide + "\n"), "wide line");
  }
  ExpectAgreement(valid_ + wide, "wide last line, no final newline");
  ExpectAgreement(valid_ + wide + "0:1\n", "wide line with a duplicate");
  ExpectAgreement(valid_ + wide + "0:nan\n", "wide line, bad last unit");
  EXPECT_GT(accepted_, 0);
  EXPECT_GT(rejected_, 0);
}

TEST_F(DatasetIoCorruptionTest, DuplicateUnits) {
  Rng rng(707);
  for (int i = 0; i < 40; ++i) {
    // Copy a random unit to the end of its own line.
    std::size_t c = valid_.find(':', Offset(rng, valid_));
    if (c == std::string::npos) c = valid_.find(':');
    std::size_t b = c;
    while (b > 0 && valid_[b - 1] != ' ' && valid_[b - 1] != '\n') --b;
    const std::size_t e = valid_.find_first_of(" \n", c);
    const std::size_t eol = valid_.find('\n', c);
    const std::string unit = valid_.substr(b, e - b);
    std::string s = valid_;
    s.insert(eol, 1, ' ');
    ExpectAgreement(s.insert(eol + 1, unit), "duplicate of " + unit);
  }
  EXPECT_EQ(accepted_, 0);
}

TEST_F(DatasetIoCorruptionTest, MixedMutations) {
  Rng rng(808);
  const char* const pieces[] = {"\r", "\n", " ", "#", ":", "-", "+", "e",
                                "x", ".", "0", "9", "nan", "1e-320", "\t"};
  for (int i = 0; i < 200; ++i) {
    std::string s = valid_;
    const int edits = static_cast<int>(rng.UniformInt(1, 4));
    for (int k = 0; k < edits; ++k) {
      const std::size_t at = Offset(rng, s);
      switch (rng.UniformInt(0, 2)) {
        case 0:
          s.insert(at, pieces[rng.UniformInt(0, std::size(pieces) - 1)]);
          break;
        case 1:
          if (at < s.size()) s.erase(at, rng.UniformInt(1, 8));
          break;
        default:
          s.resize(at);
          break;
      }
    }
    ExpectAgreement(s, "mixed #" + std::to_string(i));
  }
  EXPECT_GT(accepted_, 0);
  EXPECT_GT(rejected_, 0);
}

}  // namespace
}  // namespace ufim
