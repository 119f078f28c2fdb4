#include "algo/ufp_tree.h"

#include <algorithm>
#include <bit>

namespace ufim {

namespace {

constexpr std::size_t kMinIndexSlots = 16;

/// Smallest power-of-two slot count that keeps `nodes` children at most
/// half full.
std::size_t IndexSlotsFor(std::size_t nodes) {
  return std::bit_ceil(std::max(kMinIndexSlots, 2 * nodes));
}

std::size_t ChildHash(std::uint32_t parent, std::uint32_t rank,
                      std::uint64_t prob_bits) {
  std::uint64_t h =
      prob_bits ^
      (((std::uint64_t{parent} << 32) | rank) * 0x9E3779B97F4A7C15ULL);
  h ^= h >> 32;
  h *= 0xD6E8FEB86659FD93ULL;
  h ^= h >> 32;
  return static_cast<std::size_t>(h);
}

}  // namespace

UFPTree::UFPTree(std::size_t num_ranks, std::size_t capacity_hint)
    : nodes_(1), index_(kMinIndexSlots, 0), headers_(num_ranks) {
  // nodes_[0] is the root sentinel.
  Reserve(capacity_hint);
}

void UFPTree::Reserve(std::size_t nodes) {
  nodes_.reserve(nodes + 1);
  const std::size_t slots = IndexSlotsFor(nodes);
  if (slots > index_.size()) ResizeIndex(slots);
}

std::size_t UFPTree::FindSlot(std::uint32_t parent, std::uint32_t rank,
                              double prob) const {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(prob);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t s = ChildHash(parent, rank, bits) & mask;;
       s = (s + 1) & mask) {
    const std::uint32_t id = index_[s];
    if (id == 0) return s;
    const Node& n = nodes_[id];
    if (n.parent == parent && n.rank == rank &&
        std::bit_cast<std::uint64_t>(n.prob) == bits) {
      return s;
    }
  }
}

void UFPTree::ResizeIndex(std::size_t slots) {
  index_.assign(slots, 0);
  const std::size_t mask = slots - 1;
  for (std::uint32_t id = 1; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    std::size_t s =
        ChildHash(n.parent, n.rank, std::bit_cast<std::uint64_t>(n.prob)) &
        mask;
    while (index_[s] != 0) s = (s + 1) & mask;  // keys are distinct
    index_[s] = id;
  }
}

void UFPTree::InsertPath(const std::vector<PathUnit>& path, double w, double w2) {
  std::uint32_t cur = 0;
  for (const PathUnit& unit : path) {
    const std::size_t slot = FindSlot(cur, unit.rank, unit.prob);
    std::uint32_t next = index_[slot];
    if (next == 0) {
      next = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{unit.rank, cur, unit.prob, 0.0, 0.0});
      headers_[unit.rank].push_back(next);
      index_[slot] = next;
      if (2 * num_nodes() > index_.size()) ResizeIndex(2 * index_.size());
    }
    nodes_[next].w_sum += w;
    nodes_[next].w2_sum += w2;
    cur = next;
  }
}

void UFPTree::AncestorPathInto(std::uint32_t node,
                               std::vector<PathUnit>& out) const {
  out.clear();
  for (std::uint32_t cur = nodes_[node].parent; cur != 0;
       cur = nodes_[cur].parent) {
    out.push_back(PathUnit{nodes_[cur].rank, nodes_[cur].prob});
  }
  std::reverse(out.begin(), out.end());
}

}  // namespace ufim
