#include "algo/ufp_tree.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

namespace ufim {
namespace {

TEST(UFPTreeTest, EmptyTree) {
  UFPTree tree(4);
  EXPECT_EQ(tree.num_nodes(), 0u);
  EXPECT_EQ(tree.num_ranks(), 4u);
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(tree.header(r).empty());
  }
}

TEST(UFPTreeTest, SharesNodeOnlyWhenItemAndProbEqual) {
  UFPTree tree(3);
  // Same (rank, prob) path twice: one chain of nodes, weights summed.
  tree.InsertPath({{0, 0.8}, {1, 0.5}}, 1.0, 1.0);
  tree.InsertPath({{0, 0.8}, {1, 0.5}}, 1.0, 1.0);
  EXPECT_EQ(tree.num_nodes(), 2u);
  // Same item, different probability: a new node must appear (the paper's
  // limited-sharing rule).
  tree.InsertPath({{0, 0.7}, {1, 0.5}}, 1.0, 1.0);
  EXPECT_EQ(tree.num_nodes(), 4u);  // (0,0.7) and its own (1,0.5) child
  EXPECT_EQ(tree.header(0).size(), 2u);
  EXPECT_EQ(tree.header(1).size(), 2u);
}

TEST(UFPTreeTest, WeightsAccumulate) {
  UFPTree tree(2);
  tree.InsertPath({{0, 0.5}}, 2.0, 1.5);
  tree.InsertPath({{0, 0.5}}, 3.0, 2.5);
  ASSERT_EQ(tree.header(0).size(), 1u);
  const UFPTree::Node& n = tree.nodes()[tree.header(0)[0]];
  EXPECT_DOUBLE_EQ(n.w_sum, 5.0);
  EXPECT_DOUBLE_EQ(n.w2_sum, 4.0);
}

TEST(UFPTreeTest, AncestorPathReconstructsInsertionOrder) {
  UFPTree tree(4);
  tree.InsertPath({{0, 0.9}, {2, 0.4}, {3, 0.6}}, 1.0, 1.0);
  ASSERT_EQ(tree.header(3).size(), 1u);
  std::vector<UFPTree::PathUnit> path;
  tree.AncestorPathInto(tree.header(3)[0], path);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0].rank, 0u);
  EXPECT_DOUBLE_EQ(path[0].prob, 0.9);
  EXPECT_EQ(path[1].rank, 2u);
  EXPECT_DOUBLE_EQ(path[1].prob, 0.4);
}

TEST(UFPTreeTest, AncestorPathOfTopLevelNodeIsEmpty) {
  UFPTree tree(2);
  tree.InsertPath({{1, 0.3}}, 1.0, 1.0);
  std::vector<UFPTree::PathUnit> path{{0, 0.5}};  // stale content is cleared
  tree.AncestorPathInto(tree.header(1)[0], path);
  EXPECT_TRUE(path.empty());
}

TEST(UFPTreeTest, EmptyPathIgnored) {
  UFPTree tree(2);
  tree.InsertPath({}, 1.0, 1.0);
  EXPECT_EQ(tree.num_nodes(), 0u);
}

TEST(UFPTreeTest, PrefixSharingSplitsAtDivergence) {
  UFPTree tree(4);
  tree.InsertPath({{0, 0.5}, {1, 0.5}}, 1.0, 1.0);
  tree.InsertPath({{0, 0.5}, {2, 0.5}}, 1.0, 1.0);
  // Shared (0,0.5) root child, two distinct leaves.
  EXPECT_EQ(tree.num_nodes(), 3u);
  EXPECT_EQ(tree.header(0).size(), 1u);
  EXPECT_DOUBLE_EQ(tree.nodes()[tree.header(0)[0]].w_sum, 2.0);
}

TEST(UFPTreeTest, SameChildKeyUnderDifferentParentsStaysDistinct) {
  // One (1, 0.6) child under each of 1,000 parents: with this many equal
  // (rank, prob) keys, index probes cross each other's slots, so a
  // lookup that ignored the parent would merge them.
  constexpr std::uint32_t kParents = 1000;
  UFPTree tree(2);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t i = 0; i < kParents; ++i) {
      tree.InsertPath({{0, (i + 1) / 1024.0}, {1, 0.6}}, 1.0, 1.0);
    }
  }
  EXPECT_EQ(tree.num_nodes(), 2 * kParents);
  ASSERT_EQ(tree.header(1).size(), kParents);
  for (std::uint32_t i = 0; i < kParents; ++i) {
    const UFPTree::Node& child = tree.nodes()[tree.header(1)[i]];
    EXPECT_EQ(child.parent, tree.header(0)[i]);
    EXPECT_DOUBLE_EQ(child.w_sum, 2.0);
  }
}

/// Ids of every node labelled `rank`, in id (= creation) order.
std::vector<std::uint32_t> NodesOfRank(const UFPTree& tree,
                                       std::uint32_t rank) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 1; id < tree.nodes().size(); ++id) {
    if (tree.nodes()[id].rank == rank) ids.push_back(id);
  }
  return ids;
}

TEST(UFPTreeTest, ChildIndexGrowthKeepsSharingAndCreationOrder) {
  // 5,000 distinct children under the root and 5,000 under one node ten
  // levels down, from an unsized tree: the child index starts at 16
  // slots and has to grow many times while both fan-outs fill.
  constexpr std::uint32_t kDepth = 10;
  constexpr std::uint32_t kFanOut = 5000;
  constexpr std::uint32_t kLeafRanks = 8;
  UFPTree tree(kDepth + kLeafRanks);
  std::vector<std::vector<UFPTree::PathUnit>> paths;
  for (std::uint32_t i = 0; i < kFanOut; ++i) {
    // Probabilities below 0.5, so none collides with the deep chain.
    paths.push_back({{i % kLeafRanks, (i + 1) / 10007.0}});
  }
  std::vector<UFPTree::PathUnit> chain;
  for (std::uint32_t r = 0; r < kDepth; ++r) chain.push_back({r, 0.5});
  for (std::uint32_t i = 0; i < kFanOut; ++i) {
    std::vector<UFPTree::PathUnit> path = chain;
    path.push_back({kDepth + i % kLeafRanks, (i + 1) / 10007.0});
    paths.push_back(std::move(path));
  }
  for (const auto& path : paths) tree.InsertPath(path, 1.0, 0.25);
  ASSERT_EQ(tree.num_nodes(), 2 * kFanOut + kDepth);

  const std::uint32_t deep = tree.header(kDepth - 1).back();
  for (std::uint32_t r = kDepth; r < kDepth + kLeafRanks; ++r) {
    for (std::uint32_t n : tree.header(r)) EXPECT_EQ(tree.nodes()[n].parent, deep);
  }
  std::vector<std::vector<std::uint32_t>> headers;
  for (std::uint32_t r = 0; r < tree.num_ranks(); ++r) {
    EXPECT_EQ(tree.header(r), NodesOfRank(tree, r)) << "rank " << r;
    headers.push_back(tree.header(r));
  }
  const std::vector<UFPTree::Node> before = tree.nodes();

  // Every path again: each lookup must find its node, never add one.
  for (const auto& path : paths) tree.InsertPath(path, 1.0, 0.25);
  EXPECT_EQ(tree.num_nodes(), 2 * kFanOut + kDepth);
  for (std::uint32_t r = 0; r < tree.num_ranks(); ++r) {
    EXPECT_EQ(tree.header(r), headers[r]) << "rank " << r;
  }
  for (std::uint32_t id = 1; id < before.size(); ++id) {
    const UFPTree::Node& n = tree.nodes()[id];
    EXPECT_EQ(n.rank, before[id].rank);
    EXPECT_EQ(n.parent, before[id].parent);
    EXPECT_EQ(n.w_sum, 2 * before[id].w_sum) << "node " << id;
    EXPECT_EQ(n.w2_sum, 2 * before[id].w2_sum) << "node " << id;
  }
}

TEST(UFPTreeTest, CapacityHintDoesNotChangeTheTree) {
  // Probabilities from a small set, so paths share prefixes.
  std::vector<std::vector<UFPTree::PathUnit>> paths;
  std::uint32_t state = 12345;
  auto next = [&state] { return state = state * 1103515245u + 12345u; };
  std::size_t units = 0;
  for (int t = 0; t < 400; ++t) {
    std::vector<UFPTree::PathUnit> path;
    for (std::uint32_t r = 0; r < 12; ++r) {
      if ((next() >> 16) % 3 == 0) {
        path.push_back({r, 0.25 * (1 + (next() >> 16) % 4)});
      }
    }
    units += path.size();
    paths.push_back(std::move(path));
  }
  // `reserve` != 0: Reserve(reserve) once half the paths are in.
  auto build = [&paths](std::size_t hint, std::size_t reserve) {
    UFPTree tree(12, hint);
    double w = 1.0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (reserve != 0 && i == paths.size() / 2) tree.Reserve(reserve);
      tree.InsertPath(paths[i], w, w * w);
      w *= 0.999;
    }
    return tree;
  };
  const UFPTree unsized = build(0, 0);
  ASSERT_LT(unsized.num_nodes(), units);  // some sharing happened
  struct Sizing {
    std::size_t hint;
    std::size_t reserve;
  };
  for (const Sizing sizing :
       {Sizing{3, 0}, Sizing{unsized.num_nodes(), 0}, Sizing{0, 5},
        Sizing{0, unsized.num_nodes()}, Sizing{3, 4 * units}}) {
    const std::size_t hint = sizing.hint;
    const UFPTree tree = build(hint, sizing.reserve);
    ASSERT_EQ(tree.num_nodes(), unsized.num_nodes())
        << "hint " << hint << ", reserve " << sizing.reserve;
    for (std::uint32_t id = 1; id < tree.nodes().size(); ++id) {
      const UFPTree::Node& a = tree.nodes()[id];
      const UFPTree::Node& b = unsized.nodes()[id];
      EXPECT_EQ(a.rank, b.rank);
      EXPECT_EQ(a.parent, b.parent);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.prob),
                std::bit_cast<std::uint64_t>(b.prob));
      EXPECT_EQ(a.w_sum, b.w_sum);
      EXPECT_EQ(a.w2_sum, b.w2_sum);
    }
    for (std::uint32_t r = 0; r < 12; ++r) {
      EXPECT_EQ(tree.header(r), unsized.header(r))
          << "hint " << hint << ", reserve " << sizing.reserve;
    }
  }
}

}  // namespace
}  // namespace ufim
