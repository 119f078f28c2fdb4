#include "core/transaction.h"

#include <gtest/gtest.h>

namespace ufim {
namespace {

TEST(TransactionTest, SortsUnitsByItem) {
  Transaction t({{3, 0.5}, {1, 0.2}, {2, 0.9}});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].item, 1u);
  EXPECT_EQ(t[1].item, 2u);
  EXPECT_EQ(t[2].item, 3u);
}

TEST(TransactionTest, DropsNonPositiveProbabilities) {
  Transaction t({{1, 0.0}, {2, -0.5}, {3, 0.7}});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].item, 3u);
}

TEST(TransactionTest, ClampsProbabilitiesAboveOne) {
  Transaction t({{1, 1.5}});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].prob, 1.0);
}

TEST(TransactionTest, DeduplicatesKeepingLast) {
  Transaction t({{1, 0.3}, {1, 0.8}});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].prob, 0.8);
}

TEST(TransactionTest, SortedInputIsCleanedInPlace) {
  Transaction t({{1, 0.3}, {1, 0.8}, {2, 0.0}, {3, 1.5}, {4, 0.5}});
  EXPECT_EQ(t.units(), (std::vector<ProbItem>{{1, 0.8}, {3, 1.0}, {4, 0.5}}));
  EXPECT_EQ(t.units().capacity(), t.size());
}

TEST(TransactionTest, ProbabilityOf) {
  Transaction t({{1, 0.3}, {5, 0.9}});
  EXPECT_EQ(t.ProbabilityOf(1), 0.3);
  EXPECT_EQ(t.ProbabilityOf(5), 0.9);
  EXPECT_EQ(t.ProbabilityOf(2), 0.0);
  EXPECT_EQ(t.ProbabilityOf(9), 0.0);
}

TEST(TransactionTest, ItemsetProbabilityIsProductOfMembers) {
  Transaction t({{1, 0.5}, {2, 0.4}, {3, 0.9}});
  EXPECT_DOUBLE_EQ(t.ItemsetProbability(Itemset({1})), 0.5);
  EXPECT_DOUBLE_EQ(t.ItemsetProbability(Itemset({1, 2})), 0.2);
  EXPECT_DOUBLE_EQ(t.ItemsetProbability(Itemset({1, 2, 3})), 0.18);
}

TEST(TransactionTest, ItemsetProbabilityZeroWhenMemberAbsent) {
  Transaction t({{1, 0.5}, {3, 0.9}});
  EXPECT_EQ(t.ItemsetProbability(Itemset({1, 2})), 0.0);
  EXPECT_EQ(t.ItemsetProbability(Itemset({4})), 0.0);
}

TEST(TransactionTest, EmptyItemsetHasZeroProbabilityByConvention) {
  Transaction t({{1, 0.5}});
  EXPECT_EQ(t.ItemsetProbability(Itemset()), 0.0);
}

}  // namespace
}  // namespace ufim
