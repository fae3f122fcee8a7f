#include "core/mfs.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/frames.h"
#include "core/grid.h"
#include "sched/timeframes.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::core {

namespace {

using dfg::FuType;
using dfg::NodeId;

struct TypeState {
  int maxCols = 1;      ///< max_j
  int current = 1;      ///< current_j
  bool userLimited = false;
};

}  // namespace

std::optional<std::vector<NodeId>> topoConsistentOrder(
    const dfg::Dfg& g, const std::vector<NodeId>& priority,
    std::string* error) {
  std::vector<NodeId> out;
  out.reserve(priority.size());
  std::vector<bool> taken(g.size(), false);
  // Un-emitted operation predecessors per node (duplicate operands counted
  // twice, mirroring the duplicate CSR edges): a node is ready exactly when
  // its count reaches zero. Replaces the per-visit O(preds) emitted[] walk.
  std::vector<int> unmet(g.size(), 0);
  for (const dfg::Node& n : g.nodes())
    unmet[n.id] = static_cast<int>(g.opPreds(n.id).size());

  // Sweep the not-yet-taken suffix in priority order, compacting it in
  // place, until the list drains. Readiness is evaluated at visit time, so
  // a node emitted earlier in the same sweep unblocks its successors within
  // that sweep — the exact semantics of the original full-list rescan,
  // without the O(n) passes over already-taken entries.
  std::vector<NodeId> remaining = priority;
  while (out.size() < priority.size()) {
    std::size_t kept = 0;
    bool progress = false;
    for (NodeId id : remaining) {
      if (taken[id]) continue;  // duplicate occurrence in the list
      if (unmet[id] != 0) {
        remaining[kept++] = id;
        continue;
      }
      out.push_back(id);
      taken[id] = true;
      progress = true;
      for (NodeId sc : g.opSuccs(id)) --unmet[sc];
    }
    remaining.resize(kept);
    if (!progress) {
      // Stuck: some listed operation waits on a predecessor that is never
      // emitted (missing from the list, or part of a cycle). Returning the
      // truncated order would silently drop operations downstream.
      if (error && !remaining.empty()) {
        *error = util::format(
            "inconsistent priority order: '%s' waits on a predecessor "
            "missing from the list (or the graph has a cycle)",
            g.node(remaining.front()).name.c_str());
      }
      return std::nullopt;
    }
  }
  return out;
}

std::optional<Unplaceable> unplaceableOp(const dfg::Dfg& g,
                                         const sched::Constraints& c) {
  auto refuse = [](NodeId id, const std::string& why) {
    return Unplaceable{id, "infeasible for any number of steps: " + why};
  };
  for (NodeId id : g.operations()) {
    const FuType t = dfg::fuTypeOf(g.node(id).kind);
    const int cycles = g.node(id).cycles;
    const char* name = g.node(id).name.c_str();
    const std::string type(dfg::fuTypeName(t));
    if (auto lim = c.fuLimit.find(t); lim != c.fuLimit.end() && lim->second <= 0)
      return refuse(id, util::format("'%s' needs %s units but fuLimit allows %d",
                                     name, type.c_str(), lim->second));
    if (c.allowChaining && cycles == 1 && g.node(id).effectiveDelayNs() > c.clockNs)
      return refuse(id, util::format("single-cycle %s '%s' takes %g ns, longer "
                                     "than the %g ns clock (chaining on)",
                                     type.c_str(), name, g.node(id).effectiveDelayNs(),
                                     c.clockNs));
    if (c.latency > 0 && cycles > c.latency && !c.pipelinedFus.count(t))
      return refuse(id, util::format("'%s' takes %d cycles, more than the "
                                     "latency %d, and %s units are not "
                                     "pipelined",
                                     name, cycles, c.latency, type.c_str()));
  }
  return std::nullopt;
}

MfsResult runMfs(const dfg::Dfg& g, const MfsOptions& opt) {
  const trace::Span span("mfs");
  MfsResult res;
  if (const auto& err = g.validate()) {
    res.error = "invalid DFG: " + *err;
    return res;
  }
  const auto ops = g.operations();
  if (ops.empty()) {
    res.feasible = true;
    res.schedule = sched::Schedule(g);
    res.steps = 0;
    return res;
  }
  sched::Constraints c = opt.constraints;
  if (auto bad = unplaceableOp(g, c)) {
    res.error = bad->reason;
    return res;
  }
  const bool frontier =
      opt.frameMode == MoveFrameMode::Frontier ||
      (opt.frameMode == MoveFrameMode::Auto &&
       g.size() >= kFrontierAutoThreshold);

  const bool timeMode = opt.mode == MfsLiapunov::Mode::TimeConstrained;

  // The only timeframe build of the run, laid out at the critical path.
  // ASAP, the reversed ASAP, the peak bounds and hence the priority order do
  // not depend on cs (ALAP is a pure shift), so every step below reuses them
  // and only widens ALAP.
  std::string tfError;
  sched::Constraints probe;  // frames depend on chaining and clock only
  probe.allowChaining = c.allowChaining;
  probe.clockNs = c.clockNs;
  auto tf = computeTimeFrames(g, probe, &tfError);
  if (!tf) {
    res.error = tfError;
    return res;
  }
  // Resource mode: start at the critical path and stretch cs until feasible.
  // Time mode: cs is fixed by the user.
  int cs = timeMode ? c.timeSteps : std::max(tf->criticalSteps(), c.timeSteps);
  if (timeMode && cs < tf->criticalSteps()) {
    res.error = util::format("time constraint %d below critical path %d", cs,
                             tf->criticalSteps());
    return res;
  }
  if (cs <= 0) {
    res.error = "time-constrained MFS needs constraints.timeSteps > 0";
    return res;
  }
  if (timeMode && cs > opt.maxStepsCap) {
    res.error = util::format("time constraint %d exceeds maxStepsCap %d", cs,
                             opt.maxStepsCap);
    return res;
  }

  // Step 2: per-type column bounds and initial current_j.
  std::vector<TypeState> types(dfg::kNumFuTypes);
  for (std::size_t t = 0; t < dfg::kNumFuTypes; ++t) {
    const auto ft = static_cast<FuType>(t);
    auto lim = c.fuLimit.find(ft);
    if (lim != c.fuLimit.end()) {
      types[t].maxCols = lim->second;
      types[t].userLimited = true;
    } else {
      types[t].maxCols = std::max(1, tf->upperBound(ft));
    }
    if (timeMode) {
      const auto nOps = static_cast<int>(g.countOfType(ft));
      types[t].current = std::clamp(
          static_cast<int>(std::ceil(static_cast<double>(nOps) / cs)), 1,
          types[t].maxCols);
    } else {
      // Resource mode: all allowed units are immediately usable; the
      // redundant frame is empty and V = cs*x + y discourages new columns.
      types[t].current = types[t].maxCols;
    }
  }

  std::vector<NodeId> priority = sched::priorityOrder(g, *tf, opt.priorityRule);
  if (!opt.priorityHint.empty()) {
    // Hinted ops jump the queue; the rest keep their computed order.
    std::vector<char> hinted(g.size(), 0);
    std::vector<NodeId> merged;
    merged.reserve(priority.size());
    for (NodeId id : opt.priorityHint) {
      if (id >= g.size() || hinted[id] || !dfg::isSchedulable(g.node(id).kind))
        continue;
      hinted[id] = 1;
      merged.push_back(id);
    }
    for (NodeId id : priority)
      if (!hinted[id]) merged.push_back(id);
    priority = std::move(merged);
  }
  const auto order = topoConsistentOrder(g, priority, &res.error);
  if (!order) return res;

  for (; cs <= opt.maxStepsCap; ++cs) {
    trace::bump(trace::Counter::MfsStepSweeps);
    c.timeSteps = cs;
    tf->widenTo(cs);

    bool csInfeasible = false;
    while (!csInfeasible) {  // placement attempts at this cs
      // n = Max{max_j} in the time-constrained function; recomputed per
      // attempt because an empty move frame may have grown a bound.
      int columnBound = 1;
      for (const auto& ts : types) columnBound = std::max(columnBound, ts.maxCols);
      const MfsLiapunov energy(opt.mode, columnBound, cs);

      sched::Schedule s(g);
      s.setNumSteps(cs);
      Grid grid(g, c);
      FrameCalculator fc(g, c, *tf);
      res.liapunovTrace.clear();

      double v = 0.0;
      std::vector<double> worstOf(g.size(), 0.0);
      for (NodeId id : *order) {
        const auto t = static_cast<std::size_t>(dfg::fuTypeOf(g.node(id).kind));
        worstOf[id] = energy.worstValue(types[t].maxCols, cs);
        v += worstOf[id];
      }
      if (opt.traceLiapunov) res.liapunovTrace.push_back(v);

      bool restart = false;
      for (NodeId id : *order) {
        const auto t = static_cast<std::size_t>(dfg::fuTypeOf(g.node(id).kind));
        const auto& occ = grid.table(static_cast<FuType>(t));
        const int colHi = std::min(types[t].current, types[t].maxCols);

        // Minimum-energy cell of the move frame. Ties break toward the
        // earlier step, then the lower column — the first-wins order of the
        // exhaustive step-major scan, stated explicitly so the frontier
        // paths share the exact same selection rule.
        bool found = false;
        double bestV = 0.0;
        int bestStep = 0, bestCol = 0;
        auto consider = [&](int step, int col) {
          const double cv = energy.value(col, step);
          if (!found || cv < bestV ||
              (cv == bestV &&
               (step < bestStep || (step == bestStep && col < bestCol)))) {
            found = true;
            bestV = cv;
            bestStep = step;
            bestCol = col;
          }
        };

        if (!frontier) {
          const auto frames =
              fc.compute(s, occ, id, types[t].current, types[t].maxCols);
          trace::bump(trace::Counter::LiapunovCellEvals,
                      frames.moveFrame.size());
          for (const auto& cell : frames.moveFrame)
            consider(cell.step, cell.column);
        } else if (timeMode) {
          // V = x + n*y strictly increases with the step for any column in
          // bounds, so the earliest dependency- and occupancy-feasible step
          // dominates every later one; within it, the lowest free column.
          const auto w = fc.depWindow(s, id);
          for (int step = w.firstStep(tf->asap(id), tf->alap(id));
               step != 0 && !found; step = w.nextStep(step, tf->alap(id)))
            for (int col = 1; col <= colHi; ++col) {
              trace::bump(trace::Counter::LiapunovCellEvals);
              if (occ.canPlace(id, col, step)) {
                consider(step, col);
                break;
              }
            }
        } else {
          // V = cs*x + y strictly increases with the column for any step in
          // bounds, so the lowest column holding any feasible step
          // dominates; within it, the earliest such step.
          const auto w = fc.depWindow(s, id);
          const int lo = w.firstStep(tf->asap(id), tf->alap(id));
          const int hi = w.lastStep(lo, tf->alap(id));
          for (int col = 1; col <= colHi && lo != 0 && !found; ++col) {
            trace::bump(trace::Counter::LiapunovCellEvals);
            if (const int step = occ.firstFit(id, col, lo, hi))
              consider(step, col);
          }
        }

        if (!found) {
          // Empty/occupied move frame: widen current_j and locally
          // reschedule (Section 3.2 step 4).
          if (types[t].current < types[t].maxCols) {
            ++types[t].current;
          } else if (timeMode && !types[t].userLimited) {
            // The presumed ASAP/ALAP upper bound was too tight for this
            // priority order; the paper allows a "presummed big number", so
            // grow the bound.
            ++types[t].maxCols;
            ++types[t].current;
          } else if (!timeMode) {
            csInfeasible = true;  // try a longer schedule
            break;
          } else {
            res.error = util::format(
                "no feasible position for '%s' within %d %s units",
                g.node(id).name.c_str(), types[t].maxCols,
                std::string(dfg::fuTypeName(static_cast<FuType>(t))).c_str());
            return res;
          }
          ++res.restarts;
          if (res.restarts > opt.maxRestarts) {
            res.error = "restart budget exhausted";
            return res;
          }
          restart = true;
          break;
        }

        grid.place(id, bestCol, bestStep);
        s.place(id, bestStep, bestCol);
        fc.recordPlacement(s, id, bestStep);
        trace::bump(trace::Counter::LiapunovUpdates);
        v -= worstOf[id] - bestV;  // each move strictly decreases the energy
        if (opt.traceLiapunov) res.liapunovTrace.push_back(v);
      }
      if (restart) continue;
      if (csInfeasible) break;

      res.feasible = true;
      res.schedule = std::move(s);
      res.steps = cs;
      res.fuCount = res.schedule.fuCount();
      return res;
    }
    if (timeMode) break;  // fixed cs in time mode; csInfeasible can't happen
  }
  res.error = util::format("no feasible schedule within %d steps", opt.maxStepsCap);
  return res;
}

}  // namespace mframe::core
