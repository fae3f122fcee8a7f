#include "core/grid.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "trace/trace.h"

namespace mframe::core {

void ColumnOccupancy::setPipelined(int col, bool pipelined) {
  const auto i = static_cast<std::size_t>(col);
  if (i >= pipelined_.size()) {
    if (!pipelined) return;
    pipelined_.resize(i + 1, 0);
  }
  pipelined_[i] = pipelined ? 1 : 0;
}

void ColumnOccupancy::ensureNode(dfg::NodeId n) {
  if (n >= whereCol_.size()) {
    whereCol_.resize(n + 1, 0);
    whereStep_.resize(n + 1, 0);
  }
}

std::vector<std::uint64_t> ColumnOccupancy::cellsFor(dfg::NodeId n, int col,
                                                     int step) const {
  std::vector<std::uint64_t> cells;
  if (isPipelined(col)) {
    // One initiation per (folded) step; later stages overlap freely.
    cells.push_back(key(col, fold(step)));
  } else {
    const int cycles = g_->node(n).cycles;
    cells.reserve(static_cast<std::size_t>(cycles));
    for (int s = step; s < step + cycles; ++s) cells.push_back(key(col, fold(s)));
  }
  // Folding can alias several steps of one multicycle op onto one cell.
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  return cells;
}

bool ColumnOccupancy::canPlace(dfg::NodeId n, int col, int step) const {
  auto cellFree = [&](std::uint64_t k) {
    const auto it = cell_.find(k);
    if (it == cell_.end()) return true;
    for (dfg::NodeId other : it->second) {
      if (other == n) continue;
      if (!g_->mutuallyExclusive(n, other)) return false;
    }
    return true;
  };
  if (plainCells(col)) {
    // No folding, no pipelining: the keys are distinct consecutive steps —
    // probe them directly without materializing a key list.
    const int cycles = g_->node(n).cycles;
    for (int s = step; s < step + cycles; ++s)
      if (!cellFree(key(col, s))) return false;
    return true;
  }
  for (std::uint64_t k : cellsFor(n, col, step))
    if (!cellFree(k)) return false;
  // A multicycle op folded tighter than its own duration would overlap its
  // next initiation (functional pipelining): reject when cycles > latency.
  if (latency_ > 0 && !isPipelined(col) && g_->node(n).cycles > latency_)
    return false;
  return true;
}

int ColumnOccupancy::nextSoftStep(int col, int step) const {
  const auto c = static_cast<std::size_t>(col);
  if (c >= hard_.size()) return step;
  const std::vector<std::uint64_t>& words = hard_[c];
  std::size_t w = static_cast<std::size_t>(step) >> 6;
  if (w >= words.size()) return step;
  // Soft steps from `step` to the end of its word; the shift fills the top
  // with zeros, which read as "hard" and send the search to the next word.
  const std::uint64_t soft = ~words[w] >> (step & 63);
  if (soft != 0) return step + std::countr_zero(soft);
  for (++w; w < words.size(); ++w)
    if (~words[w] != 0)
      return static_cast<int>(w * 64) + std::countr_zero(~words[w]);
  return static_cast<int>(w * 64);  // past the last word: nothing is hard
}

void ColumnOccupancy::setHard(int col, int step, bool hard) {
  if (step < 1) return;  // steps start at 1; firstFit never looks lower
  const auto c = static_cast<std::size_t>(col);
  const auto w = static_cast<std::size_t>(step) >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (step & 63);
  if (!hard) {
    if (c < hard_.size() && w < hard_[c].size()) hard_[c][w] &= ~bit;
    return;
  }
  if (c >= hard_.size()) hard_.resize(c + 1);
  if (w >= hard_[c].size()) hard_[c].resize(w + 1, 0);
  hard_[c][w] |= bit;
}

int ColumnOccupancy::firstFit(dfg::NodeId n, int col, int lo, int hi) const {
  // canPlace ignores n's own cells, which the index counts as hard, so a
  // column already holding n is scanned step by step.
  const bool indexed =
      plainCells(col) && !(isPlaced(n) && whereCol_[n] == col);
  int step = std::max(lo, 1);
  while (step <= hi) {
    if (indexed) {
      step = nextSoftStep(col, step);
      if (step > hi) break;
    }
    trace::bump(trace::Counter::OccupancyProbes);
    if (canPlace(n, col, step)) return step;
    if (step == hi) break;
    ++step;
  }
  return 0;
}

void ColumnOccupancy::place(dfg::NodeId n, int col, int step) {
  assert(!isPlaced(n));
  for (std::uint64_t k : cellsFor(n, col, step)) cell_[k].push_back(n);
  if (plainCells(col) && g_->isUnconditional(n))
    for (int s = step; s < step + g_->node(n).cycles; ++s) setHard(col, s, true);
  ensureNode(n);
  whereCol_[n] = col;
  whereStep_[n] = step;
  const auto c = static_cast<std::size_t>(col);
  if (c >= opsPerCol_.size()) opsPerCol_.resize(c + 1, 0);
  ++opsPerCol_[c];
}

void ColumnOccupancy::remove(dfg::NodeId n) {
  if (!isPlaced(n)) return;
  const int col = whereCol_[n];
  const int step = whereStep_[n];
  for (std::uint64_t k : cellsFor(n, col, step)) {
    auto& v = cell_[k];
    v.erase(std::remove(v.begin(), v.end(), n), v.end());
    if (v.empty()) cell_.erase(k);
  }
  if (plainCells(col) && g_->isUnconditional(n)) {
    // The step stays hard only while another unconditional op holds it.
    for (int s = step; s < step + g_->node(n).cycles; ++s) {
      const auto it = cell_.find(key(col, s));
      setHard(col, s,
              it != cell_.end() &&
                  std::any_of(it->second.begin(), it->second.end(),
                              [&](dfg::NodeId o) {
                                return g_->isUnconditional(o);
                              }));
    }
  }
  whereCol_[n] = 0;
  whereStep_[n] = 0;
  --opsPerCol_[static_cast<std::size_t>(col)];
}

void ColumnOccupancy::clear() {
  cell_.clear();
  hard_.clear();
  whereCol_.assign(whereCol_.size(), 0);
  whereStep_.assign(whereStep_.size(), 0);
  opsPerCol_.assign(opsPerCol_.size(), 0);
}

int ColumnOccupancy::maxColumnUsed() const {
  for (std::size_t c = opsPerCol_.size(); c > 0; --c)
    if (opsPerCol_[c - 1] > 0) return static_cast<int>(c - 1);
  return 0;
}

std::vector<dfg::NodeId> ColumnOccupancy::at(int col, int step) const {
  const auto it = cell_.find(key(col, fold(step)));
  return it == cell_.end() ? std::vector<dfg::NodeId>{} : it->second;
}

Grid::Grid(const dfg::Dfg& g, const sched::Constraints& c) : g_(&g) {
  tables_.reserve(dfg::kNumFuTypes);
  for (std::size_t t = 0; t < dfg::kNumFuTypes; ++t) {
    tables_.emplace_back(g, c);
    if (c.pipelinedFus.count(static_cast<dfg::FuType>(t))) {
      // All columns of a pipelined type behave pipelined; flag generously.
      for (int col = 1; col <= static_cast<int>(g.size()) + 1; ++col)
        tables_.back().setPipelined(col, true);
    }
  }
}

bool Grid::canPlace(dfg::NodeId n, int col, int step) const {
  return table(dfg::fuTypeOf(g_->node(n).kind)).canPlace(n, col, step);
}

void Grid::place(dfg::NodeId n, int col, int step) {
  table(dfg::fuTypeOf(g_->node(n).kind)).place(n, col, step);
}

void Grid::clear() {
  for (auto& t : tables_) t.clear();
}

}  // namespace mframe::core
