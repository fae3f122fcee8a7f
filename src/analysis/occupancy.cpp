#include "analysis/occupancy.h"

#include <algorithm>
#include <compare>
#include <numeric>

namespace mframe::analysis {

namespace {

/// One (folded) step in which the op at position `item` holds its unit.
/// Ordered by slot, then by position.
struct SlotUse {
  int slot;
  std::uint32_t item;
  auto operator<=>(const SlotUse&) const = default;
};

}  // namespace

std::vector<IndexPair> occupancyConflicts(const dfg::Dfg& g,
                                          const sched::Schedule& s,
                                          const std::vector<dfg::NodeId>& ops,
                                          bool pipelined, int latency) {
  std::vector<SlotUse> uses;
  uses.reserve(ops.size());
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    const int start = s.stepOf(ops[i]);
    const int cycles = pipelined ? 1 : g.node(ops[i]).cycles;
    for (int st = start; st < start + cycles; ++st)
      uses.push_back({latency > 0 ? (st - 1) % latency : st, i});
  }
  std::sort(uses.begin(), uses.end());
  // A multicycle op longer than the latency folds onto one slot twice.
  uses.erase(std::unique(uses.begin(), uses.end()), uses.end());

  std::vector<IndexPair> pairs;
  for (std::size_t lo = 0, hi = 0; lo < uses.size(); lo = hi) {
    while (hi < uses.size() && uses[hi].slot == uses[lo].slot) ++hi;
    // Items within a bucket are in ascending position order.
    for (std::size_t i = lo; i < hi; ++i)
      for (std::size_t j = i + 1; j < hi; ++j)
        if (!g.mutuallyExclusive(ops[uses[i].item], ops[uses[j].item]))
          pairs.emplace_back(uses[i].item, uses[j].item);
  }
  // Two multicycle ops can meet in several slots.
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

std::vector<IndexPair> overlappingLifetimes(
    const std::vector<alloc::Lifetime>& lifetimes,
    const std::vector<std::size_t>& packed) {
  const auto lt = [&](std::uint32_t pos) -> const alloc::Lifetime& {
    return lifetimes[packed[pos]];
  };
  std::vector<std::uint32_t> byBirth(packed.size());
  std::iota(byBirth.begin(), byBirth.end(), 0u);
  std::stable_sort(byBirth.begin(), byBirth.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return lt(a).birth < lt(b).birth;
                   });

  std::vector<IndexPair> pairs;
  std::vector<std::uint32_t> alive;
  for (const std::uint32_t j : byBirth) {
    const alloc::Lifetime& b = lt(j);
    // A lifetime born no later than b that dies by b's birth can overlap
    // neither b nor anything born after it (overlaps needs b.birth < death).
    std::erase_if(alive, [&](std::uint32_t i) { return lt(i).death <= b.birth; });
    for (const std::uint32_t i : alive)
      if (lt(i).overlaps(b)) pairs.emplace_back(std::min(i, j), std::max(i, j));
    alive.push_back(j);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace mframe::analysis
