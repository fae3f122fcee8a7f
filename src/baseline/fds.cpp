#include "baseline/fds.h"

#include <algorithm>
#include <map>
#include <vector>

#include "core/grid.h"
#include "util/strings.h"

namespace mframe::baseline {

namespace {

using dfg::FuType;
using dfg::NodeId;

/// Mutable time frames, tightened as operations are fixed.
struct Frame {
  int lo = 1, hi = 1;
  int width() const { return hi - lo + 1; }
};

/// Longest-path ASAP/ALAP without chaining, respecting current bounds.
bool propagate(const dfg::Dfg& g, int cs, std::vector<Frame>& f) {
  const auto order = *g.topoOrder();
  for (NodeId id : order) {
    if (!dfg::isSchedulable(g.node(id).kind)) continue;
    for (NodeId p : g.opPreds(id))
      f[id].lo = std::max(f[id].lo, f[p].lo + g.node(p).cycles);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId id = *it;
    if (!dfg::isSchedulable(g.node(id).kind)) continue;
    f[id].hi = std::min(f[id].hi, cs - g.node(id).cycles + 1);
    for (NodeId sc : g.opSuccs(id))
      f[id].hi = std::min(f[id].hi, f[sc].hi - g.node(id).cycles);
    if (f[id].lo > f[id].hi) return false;
  }
  return true;
}

}  // namespace

FdsResult runForceDirected(const dfg::Dfg& g, const sched::Constraints& c) {
  FdsResult res;
  if (const auto& err = g.validate()) {
    res.error = "invalid DFG: " + *err;
    return res;
  }
  const int cs = c.timeSteps;
  if (cs <= 0) {
    res.error = "FDS needs constraints.timeSteps > 0";
    return res;
  }
  const auto ops = g.operations();

  std::vector<Frame> frame(g.size());
  for (NodeId id : ops) frame[id] = {1, cs};
  if (!propagate(g, cs, frame)) {
    res.error = util::format("time constraint %d below critical path", cs);
    return res;
  }

  // Distribution graph: expected occupancy per (type, step), counting each
  // operation as probability 1/frame-width over the steps its execution can
  // cover.
  auto distribution = [&](const std::vector<Frame>& f) {
    std::map<FuType, std::vector<double>> dg;
    for (NodeId id : ops) {
      const dfg::Node& n = g.node(id);
      const FuType t = dfg::fuTypeOf(n.kind);
      auto& row = dg.try_emplace(t, std::vector<double>(cs + 2, 0.0)).first->second;
      const double p = 1.0 / f[id].width();
      for (int s = f[id].lo; s <= f[id].hi; ++s)
        for (int k = 0; k < n.cycles && s + k <= cs; ++k) row[s + k] += p;
    }
    return dg;
  };

  std::vector<bool> fixed(g.size(), false);
  for (std::size_t iter = 0; iter < ops.size(); ++iter) {
    const auto dg = distribution(frame);

    double bestForce = 0.0;
    NodeId bestOp = dfg::kNoNode;
    int bestStep = 0;
    for (NodeId id : ops) {
      if (fixed[id]) continue;
      for (int s = frame[id].lo; s <= frame[id].hi; ++s) {
        // Self force of tentatively fixing `id` at step s, plus the forces
        // of the implied frame tightenings of predecessors and successors.
        std::vector<Frame> trial = frame;
        trial[id] = {s, s};
        if (!propagate(g, cs, trial)) continue;

        double force = 0.0;
        for (NodeId other : ops) {
          // Only the tentatively fixed op and ops whose frames tightened
          // contribute to the force delta.
          if (other != id &&
              (fixed[other] || (frame[other].lo == trial[other].lo &&
                                frame[other].hi == trial[other].hi)))
            continue;
          const dfg::Node& on = g.node(other);
          const auto& orow = dg.at(dfg::fuTypeOf(on.kind));
          const double before = 1.0 / frame[other].width();
          const double after = 1.0 / trial[other].width();
          for (int q = trial[other].lo; q <= trial[other].hi; ++q)
            for (int k = 0; k < on.cycles && q + k <= cs; ++k)
              force += orow[q + k] * after;
          for (int q = frame[other].lo; q <= frame[other].hi; ++q)
            for (int k = 0; k < on.cycles && q + k <= cs; ++k)
              force -= orow[q + k] * before;
        }
        if (bestOp == dfg::kNoNode || force < bestForce) {
          bestForce = force;
          bestOp = id;
          bestStep = s;
        }
      }
    }
    if (bestOp == dfg::kNoNode) {
      res.error = "FDS could not fix any operation";
      return res;
    }
    frame[bestOp] = {bestStep, bestStep};
    fixed[bestOp] = true;
    if (!propagate(g, cs, frame)) {
      res.error = "FDS frames became infeasible";
      return res;
    }
  }

  // Column (instance) assignment per type, greedily.
  sched::Schedule s(g);
  s.setNumSteps(cs);
  std::map<FuType, core::ColumnOccupancy> occs;
  for (NodeId id : ops) {
    const FuType t = dfg::fuTypeOf(g.node(id).kind);
    auto [it, inserted] = occs.try_emplace(t, g, c);
    for (int col = 1;; ++col) {
      if (it->second.canPlace(id, col, frame[id].lo)) {
        it->second.place(id, col, frame[id].lo);
        s.place(id, frame[id].lo, col);
        break;
      }
    }
  }
  res.schedule = std::move(s);
  res.steps = cs;
  res.feasible = true;
  return res;
}

}  // namespace mframe::baseline
