#include "core/frames.h"

#include <algorithm>

namespace mframe::core {

FrameCalculator::DepCheck FrameCalculator::depOk(const sched::Schedule& s,
                                                 dfg::NodeId n, int step) const {
  const int cycles = g_->node(n).cycles;
  DepCheck out;
  double off = 0.0;
  for (dfg::NodeId p : g_->opPreds(n)) {
    if (!s.isPlaced(p)) continue;  // scheduled later; ASAP already bounds us
    const int pEnd = s.stepOf(p) + g_->node(p).cycles - 1;
    if (pEnd < step) continue;
    if (pEnd > step) return {};  // predecessor still busy after our start
    // Predecessor finishes exactly in our step: only a chain can save this.
    if (!c_->allowChaining || g_->node(p).cycles > 1 || cycles > 1) return {};
    off = std::max(off, chainOffsetOf(p));
  }
  if (c_->allowChaining && cycles == 1) {
    if (off + g_->node(n).effectiveDelayNs() > c_->clockNs) return {};
  } else if (off > 0.0) {
    return {};  // multicycle ops start on step boundaries
  }
  out.ok = true;
  out.startOffsetNs = off;
  return out;
}

FrameCalculator::DepWindow FrameCalculator::depWindow(const sched::Schedule& s,
                                                      dfg::NodeId n) const {
  const int cycles = g_->node(n).cycles;
  DepWindow w;
  bool boundaryChainable = true;  // every pred ending at the boundary chains
  for (dfg::NodeId p : g_->opPreds(n)) {
    if (!s.isPlaced(p)) continue;
    const int pEnd = s.stepOf(p) + g_->node(p).cycles - 1;
    if (pEnd > w.boundaryStep) {
      w.boundaryStep = pEnd;
      w.boundaryOff = 0.0;
      boundaryChainable = true;
    }
    if (pEnd == w.boundaryStep) {
      if (g_->node(p).cycles > 1)
        boundaryChainable = false;
      else
        w.boundaryOff = std::max(w.boundaryOff, chainOffsetOf(p));
    }
  }
  const bool chainable = c_->allowChaining && cycles == 1;
  // Above the boundary no pred constrains the start; only an op whose own
  // delay never fits the clock stays infeasible.
  w.aboveOk = !chainable || g_->node(n).effectiveDelayNs() <= c_->clockNs;
  if (w.boundaryStep == 0) {
    // No placed predecessor: there is no boundary case, every step behaves
    // like the "above" zone.
    w.boundaryOk = false;
    return w;
  }
  w.boundaryOk = c_->allowChaining && boundaryChainable && cycles == 1 &&
                 w.boundaryOff + g_->node(n).effectiveDelayNs() <= c_->clockNs;
  if (!w.boundaryOk) w.boundaryOff = 0.0;
  return w;
}

void FrameCalculator::recordPlacement(const sched::Schedule& s, dfg::NodeId n,
                                      int step) {
  const DepCheck d = depOk(s, n, step);
  if (n >= chainOff_.size()) chainOff_.resize(g_->size(), 0.0);
  if (c_->allowChaining && g_->node(n).cycles == 1)
    chainOff_[n] = d.startOffsetNs + g_->node(n).effectiveDelayNs();
  else
    chainOff_[n] = 0.0;  // result lands on a step boundary
}

FrameCalculator::Frames FrameCalculator::compute(const sched::Schedule& s,
                                                 const ColumnOccupancy& occ,
                                                 dfg::NodeId n, int currentCols,
                                                 int maxCols) const {
  Frames f;
  f.pfStepLo = tf_->asap(n);
  f.pfStepHi = tf_->alap(n);
  f.pfColLo = 1;
  f.pfColHi = maxCols;
  f.rfColLo = currentCols + 1;

  // FF lower bound from placed predecessors, before the chaining relaxation:
  // "exclude those positions whose control steps are less than or equal to
  // the predecessors' control step".
  int below = f.pfStepLo;
  for (dfg::NodeId p : g_->opPreds(n))
    if (s.isPlaced(p))
      below = std::max(below, s.stepOf(p) + g_->node(p).cycles - 1 +
                                  (c_->allowChaining ? 0 : 1));
  f.ffBelowStep = below;

  const int colHi = std::min(currentCols, maxCols);
  for (int step = f.pfStepLo; step <= f.pfStepHi; ++step) {
    if (!depOk(s, n, step).ok) continue;
    for (int col = 1; col <= colHi; ++col)
      if (occ.canPlace(n, col, step)) f.moveFrame.push_back({step, col});
  }
  return f;
}

}  // namespace mframe::core
