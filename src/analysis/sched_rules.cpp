#include "analysis/sched_rules.h"

#include <algorithm>
#include <map>
#include <vector>

#include "analysis/occupancy.h"
#include "analysis/rules.h"
#include "util/strings.h"

namespace mframe::analysis {

namespace {

using dfg::NodeId;
using sched::Constraints;
using sched::Placement;
using sched::Schedule;

Diagnostic diag(std::string_view rule, EntityKind entity, Location loc,
                std::string message, std::string fixit = "") {
  Diagnostic d;
  d.rule = std::string(rule);
  d.severity = findRule(rule)->severity;
  d.entity = entity;
  d.loc = std::move(loc);
  d.message = std::move(message);
  d.fixit = std::move(fixit);
  return d;
}

Location at(std::string node, int step = -1, int unit = -1,
            std::string detail = "") {
  Location l;
  l.node = std::move(node);
  l.step = step;
  l.unit = unit;
  l.detail = std::move(detail);
  return l;
}

}  // namespace

LintReport lintSchedule(const Schedule& s, const Constraints& c) {
  LintReport r;
  // -- SCH009: a default Schedule (e.g. of an infeasible result) -----------
  if (!s.sharedGraph()) {
    r.add(diag(kSchedNoGraph, EntityKind::Design, {},
               "schedule has no graph (is it the result of an infeasible run?)",
               "verify only the schedules of feasible results"));
    return r;
  }
  const dfg::Dfg& g = s.graph();
  const int cs = s.numSteps();

  // -- SCH001..SCH003: completeness and range -------------------------------
  for (const dfg::Node& n : g.nodes()) {
    if (!dfg::isSchedulable(n.kind)) continue;
    if (!s.isPlaced(n.id)) {
      r.add(diag(kSchedUnplaced, EntityKind::Node, at(n.name),
                 util::format("op '%s' is not scheduled", n.name.c_str()),
                 "place every schedulable operation"));
      continue;
    }
    const Placement& p = s.at(n.id);
    if (p.step < 1 || p.step + n.cycles - 1 > cs)
      r.add(diag(kSchedOutOfRange, EntityKind::Node,
                 at(n.name, p.step),
                 util::format("op '%s' occupies steps [%d,%d] outside [1,%d]",
                              n.name.c_str(), p.step, p.step + n.cycles - 1, cs)));
    if (p.column < 1)
      r.add(diag(kSchedBadColumn, EntityKind::Node,
                 at(n.name, p.step, p.column),
                 util::format("op '%s' has invalid column %d", n.name.c_str(),
                              p.column)));
  }
  if (!r.empty()) return r;  // later checks assume complete placement

  // -- SCH004..SCH006: precedence (with chaining) ---------------------------
  // A dependence cycle (only a leniently built graph has one, see DFG003)
  // has no topological order, so no schedule can meet precedence.
  const auto order = g.topoOrder();
  if (!order) {
    r.add(diag(kSchedPrecedence, EntityKind::Design, {},
               "precedence cannot hold: the graph has a dependence cycle",
               "break the cycle (see DFG003)"));
    return r;
  }
  // chainOff[n] = combinational offset (ns) at which n's result is ready
  // within its own step, or 0 when the value crosses a step boundary.
  std::vector<double> chainOff(g.size(), 0.0);
  for (NodeId id : *order) {
    const dfg::Node& n = g.node(id);
    if (!dfg::isSchedulable(n.kind)) continue;
    const int start = s.stepOf(id);
    double startOff = 0.0;
    for (NodeId p : g.opPreds(id)) {
      const dfg::Node& pn = g.node(p);
      const int pEnd = s.stepOf(p) + pn.cycles - 1;
      if (pEnd < start) continue;  // value registered before we start: fine
      // Predecessor finishes in our start step or later.
      if (pEnd > start || pn.cycles > 1 || !c.allowChaining) {
        r.add(diag(kSchedPrecedence, EntityKind::Node,
                   at(n.name, start, -1, pn.name),
                   util::format("precedence violated: '%s'@%d depends on '%s' "
                                "finishing step %d",
                                n.name.c_str(), start, pn.name.c_str(), pEnd),
                   "move the successor to a later step"));
        continue;
      }
      // Same-step single-cycle predecessor: legal only as a chain.
      startOff = std::max(startOff, chainOff[p]);
    }
    const double delay = n.effectiveDelayNs();
    if (c.allowChaining && n.cycles == 1) {
      const double fin = startOff + delay;
      if (fin > c.clockNs)
        r.add(diag(kSchedChainOverflow, EntityKind::Node,
                   at(n.name, start),
                   util::format("chaining violated: '%s' finishes %.1fns into "
                                "a %.1fns step",
                                n.name.c_str(), fin, c.clockNs),
                   "lengthen the clock or break the chain across steps"));
      chainOff[id] = fin;
    } else {
      if (startOff > 0.0)
        r.add(diag(kSchedMidStepStart, EntityKind::Node,
                   at(n.name, start),
                   util::format("op '%s' cannot start mid-step (chained input, "
                                "but op is multicycle or chaining is off)",
                                n.name.c_str())));
      chainOff[id] = 0.0;  // multicycle results land on a step boundary
    }
  }

  // -- SCH007: occupancy ----------------------------------------------------
  std::map<std::pair<dfg::FuType, int>, std::vector<NodeId>> byColumn;
  for (const dfg::Node& n : g.nodes()) {
    if (!dfg::isSchedulable(n.kind)) continue;
    byColumn[{dfg::fuTypeOf(n.kind), s.columnOf(n.id)}].push_back(n.id);
  }
  for (const auto& [key, ops] : byColumn) {
    const auto [type, col] = key;
    const bool pipelined = c.pipelinedFus.count(type) > 0;
    for (const auto& [i, j] :
         occupancyConflicts(g, s, ops, pipelined, c.latency)) {
      const dfg::Node& a = g.node(ops[i]);
      const dfg::Node& b = g.node(ops[j]);
      r.add(diag(kSchedOccupancy, EntityKind::Fu,
                 at(a.name, s.stepOf(a.id), col, b.name),
                 util::format("occupancy conflict on %s#%d: '%s'@%d vs '%s'@%d",
                              std::string(dfg::fuTypeName(type)).c_str(), col,
                              a.name.c_str(), s.stepOf(a.id), b.name.c_str(),
                              s.stepOf(b.id)),
                 "move one operation to a free column or another step"));
    }
  }

  // -- SCH008: resource limits ----------------------------------------------
  for (const auto& [type, used] : s.fuCount()) {
    auto it = c.fuLimit.find(type);
    if (it != c.fuLimit.end() && used > it->second)
      r.add(diag(kSchedResourceLimit, EntityKind::Fu,
                 at("", -1, used, std::string(dfg::fuTypeName(type))),
                 util::format("resource limit exceeded: %d %s used, %d allowed",
                              used, std::string(dfg::fuTypeName(type)).c_str(),
                              it->second),
                 "relax the limit or allow more control steps"));
  }
  return r;
}

}  // namespace mframe::analysis
