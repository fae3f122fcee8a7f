// The 2-D placement tables of Section 2.3: one (FU instance x control step)
// table per FU type ("the complete space will be a 3-dimensional space where
// the third dimension represents the type").
//
// ColumnOccupancy tracks which operations sit where in one column space and
// encapsulates every co-location rule the paper defines:
//  * mutually exclusive operations may share a cell (Section 5.1);
//  * multicycle operations hold their column for `cycles` consecutive steps
//    (Section 5.3);
//  * on a structurally pipelined column, operations conflict only when they
//    start in the same step (Section 5.5.1);
//  * with functional-pipelining latency L, steps are folded mod L, because
//    "operations scheduled into control step t + k*L run concurrently"
//    (Section 5.5.2).
//
// Storage is flat: cells are keyed by a packed (column, folded step) word in
// a hash map, per-node placements live in id-indexed arrays, and the
// pipelined flag is a per-column bit — the schedulers probe canPlace()
// millions of times on large graphs and the old std::map-of-pairs layout
// spent the run chasing red-black-tree pointers.
//
// On plain columns (no folding, not pipelined) a per-column bitset marks the
// "hard" steps: those held by an unconditional op (empty branch path). Such
// an op is mutually exclusive with nothing, so no other op can start on a
// hard step, and firstFit() skips them 64 steps per word before asking
// canPlace() about the step it lands on.
//
// MFS composes one ColumnOccupancy per FU type (class Grid); MFSA reuses
// ColumnOccupancy with one column per allocated ALU instance.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dfg/dfg.h"
#include "sched/schedule.h"

namespace mframe::core {

class ColumnOccupancy {
 public:
  ColumnOccupancy(const dfg::Dfg& g, const sched::Constraints& c)
      : g_(&g), latency_(c.latency) {}

  /// Mark a column as structurally pipelined (start-step conflicts only).
  /// Set it before placing ops on the column.
  void setPipelined(int col, bool pipelined);
  bool isPipelined(int col) const {
    const auto i = static_cast<std::size_t>(col);
    return i < pipelined_.size() && pipelined_[i] != 0;
  }

  /// Can `n` start at `step` on `col` without an occupancy conflict?
  bool canPlace(dfg::NodeId n, int col, int step) const;

  /// Earliest step in [max(lo, 1), hi] where canPlace(n, col, step) holds;
  /// 0 when there is none. canPlace() judges every step returned; on plain
  /// columns the hard-step index only skips steps it would refuse.
  int firstFit(dfg::NodeId n, int col, int lo, int hi) const;

  void place(dfg::NodeId n, int col, int step);
  void remove(dfg::NodeId n);
  void clear();

  bool isPlaced(dfg::NodeId n) const {
    return n < whereCol_.size() && whereCol_[n] != 0;
  }

  /// Highest column holding at least one operation (0 when empty).
  int maxColumnUsed() const;

  /// Operations occupying (col, step) — after latency folding.
  std::vector<dfg::NodeId> at(int col, int step) const;

 private:
  static std::uint64_t key(int col, int foldedStep) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(col)) << 32) |
           static_cast<std::uint32_t>(foldedStep);
  }
  /// Cell keys this op occupies if started at `step` on `col`.
  std::vector<std::uint64_t> cellsFor(dfg::NodeId n, int col, int step) const;
  int fold(int step) const { return latency_ > 0 ? (step - 1) % latency_ : step; }
  /// True when the op's cells are (col, step)..(col, step+cycles-1) with no
  /// folding aliasing — the hot case that needs no materialized key list.
  bool plainCells(int col) const { return latency_ <= 0 && !isPipelined(col); }
  void ensureNode(dfg::NodeId n);
  /// First step >= `step` that is not hard on plain column `col`.
  int nextSoftStep(int col, int step) const;
  void setHard(int col, int step, bool hard);

  const dfg::Dfg* g_;
  int latency_;
  std::vector<char> pipelined_;                              ///< by column
  std::unordered_map<std::uint64_t, std::vector<dfg::NodeId>> cell_;
  std::vector<int> whereCol_;   ///< by node; 0 = not placed
  std::vector<int> whereStep_;  ///< by node; start step when placed
  std::vector<int> opsPerCol_;  ///< ops currently resident per column
  /// By column, plain columns only: bit s set when step s is held by an
  /// unconditional op.
  std::vector<std::vector<std::uint64_t>> hard_;
};

/// MFS's 3-D space: one column table per FU type.
class Grid {
 public:
  Grid(const dfg::Dfg& g, const sched::Constraints& c);

  ColumnOccupancy& table(dfg::FuType t) { return tables_[static_cast<std::size_t>(t)]; }
  const ColumnOccupancy& table(dfg::FuType t) const {
    return tables_[static_cast<std::size_t>(t)];
  }

  bool canPlace(dfg::NodeId n, int col, int step) const;
  void place(dfg::NodeId n, int col, int step);
  void clear();

 private:
  const dfg::Dfg* g_;
  std::vector<ColumnOccupancy> tables_;
};

}  // namespace mframe::core
