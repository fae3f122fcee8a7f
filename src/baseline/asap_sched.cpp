#include "baseline/asap_sched.h"

#include <map>

#include "core/grid.h"
#include "sched/timeframes.h"

namespace mframe::baseline {

AsapResult runAsap(const dfg::Dfg& g, const sched::Constraints& c) {
  AsapResult res;
  if (const auto& err = g.validate()) {
    res.error = "invalid DFG: " + *err;
    return res;
  }
  std::string tfError;
  sched::Constraints probe = c;
  probe.timeSteps = 0;  // unconstrained: pure ASAP
  const auto tf = computeTimeFrames(g, probe, &tfError);
  if (!tf) {
    res.error = tfError;
    return res;
  }

  sched::Schedule s(g);
  s.setNumSteps(tf->criticalSteps());
  std::map<dfg::FuType, core::ColumnOccupancy> occs;
  const auto order = *g.topoOrder();
  for (dfg::NodeId id : order) {
    if (!dfg::isSchedulable(g.node(id).kind)) continue;
    const dfg::FuType t = dfg::fuTypeOf(g.node(id).kind);
    auto [it, inserted] = occs.try_emplace(t, g, c);
    for (int col = 1;; ++col) {
      if (it->second.canPlace(id, col, tf->asap(id))) {
        it->second.place(id, col, tf->asap(id));
        s.place(id, tf->asap(id), col);
        break;
      }
    }
  }
  res.steps = tf->criticalSteps();
  res.schedule = std::move(s);
  res.feasible = true;
  return res;
}

}  // namespace mframe::baseline
