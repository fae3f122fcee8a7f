#include "analysis/rtl_rules.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>

#include "analysis/occupancy.h"
#include "analysis/rules.h"
#include "util/strings.h"

namespace mframe::analysis {

namespace {

using dfg::NodeId;

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

LintReport lintDatapath(const rtl::Datapath& d, const sched::Constraints& c,
                        rtl::DesignStyle style) {
  LintReport r;
  // -- RTL014: a default Datapath (e.g. of an infeasible result) -----------
  if (!d.graph || !d.lib || !d.schedule.sharedGraph()) {
    r.add(diag(kRtlNoGraph, EntityKind::Design, {},
               "datapath has no graph, cell library or schedule (is it the "
               "result of an infeasible run?)",
               "verify only the datapaths of feasible results"));
    return r;
  }
  const dfg::Dfg& g = *d.graph;

  // -- RTL001..RTL004: binding ----------------------------------------------
  // seen[op] = the ALU index op was last bound to, kUnbound when none.
  constexpr int kUnbound = std::numeric_limits<int>::min();
  std::vector<int> seen(g.size(), kUnbound);
  for (const rtl::AluInstance& a : d.alus) {
    const celllib::Module& m = d.lib->module(a.module);
    for (NodeId op : a.ops) {
      if (seen[op] != kUnbound)
        r.add(diag(kRtlDoubleBinding, EntityKind::Alu,
                   at(g.node(op).name, -1, a.index),
                   util::format("op '%s' bound to ALU%d and ALU%d",
                                g.node(op).name.c_str(), seen[op], a.index),
                   "bind every operation to exactly one ALU"));
      seen[op] = a.index;
      if (!dfg::isSchedulable(g.node(op).kind))
        r.add(diag(kRtlNonOpBound, EntityKind::Alu,
                   at(g.node(op).name, -1, a.index),
                   util::format("non-operation '%s' bound to an ALU",
                                g.node(op).name.c_str())));
      else if (!m.supports(dfg::fuTypeOf(g.node(op).kind)))
        r.add(diag(kRtlUnsupportedOp, EntityKind::Alu,
                   at(g.node(op).name, -1, a.index, m.signature()),
                   util::format("ALU%d (%s) cannot perform '%s'", a.index,
                                m.signature().c_str(), g.node(op).name.c_str()),
                   "bind the op to a module with the matching capability"));
    }
  }
  for (NodeId op : g.operations())
    if (seen[op] == kUnbound)
      r.add(diag(kRtlUnboundOp, EntityKind::Node, at(g.node(op).name),
                 util::format("op '%s' is not bound to any ALU",
                              g.node(op).name.c_str())));
  if (!r.empty()) return r;  // later checks assume a total binding

  // -- RTL005: ALU occupancy ------------------------------------------------
  for (const rtl::AluInstance& a : d.alus) {
    const bool pipelined = d.lib->module(a.module).stages > 1;
    for (const auto& [i, j] :
         occupancyConflicts(g, d.schedule, a.ops, pipelined, c.latency)) {
      const NodeId x = a.ops[i];
      const NodeId y = a.ops[j];
      r.add(diag(kRtlAluOverlap, EntityKind::Alu,
                 at(g.node(x).name, d.schedule.stepOf(x), a.index,
                    g.node(y).name),
                 util::format("ALU%d executes '%s' and '%s' concurrently",
                              a.index, g.node(x).name.c_str(),
                              g.node(y).name.c_str()),
                 "rebind one operation or reschedule it"));
    }
  }

  // -- RTL006: style 2, no self loop around ALUs ----------------------------
  if (style == rtl::DesignStyle::NoSelfLoop) {
    for (const rtl::AluInstance& a : d.alus) {
      const std::set<NodeId> inAlu(a.ops.begin(), a.ops.end());
      for (NodeId op : a.ops)
        for (NodeId p : g.opPreds(op))
          if (inAlu.count(p))
            r.add(diag(kRtlSelfLoop, EntityKind::Alu,
                       at(g.node(op).name, -1, a.index, g.node(p).name),
                       util::format("style-2 violation: '%s' and its predecessor "
                                    "'%s' share ALU%d",
                                    g.node(op).name.c_str(),
                                    g.node(p).name.c_str(), a.index),
                       "separate dependent operations onto distinct ALUs"));
    }
  }

  // -- RTL007/RTL008: registers --------------------------------------------
  for (std::size_t reg = 0; reg < d.regs.registers.size(); ++reg) {
    const auto& packed = d.regs.registers[reg];
    for (const auto& [i, j] : overlappingLifetimes(d.lifetimes, packed)) {
      const std::string& a = g.node(d.lifetimes[packed[i]].producer).name;
      const std::string& b = g.node(d.lifetimes[packed[j]].producer).name;
      r.add(diag(kRtlRegisterOverlap, EntityKind::Register,
                 at(a, -1, static_cast<int>(reg), b),
                 util::format("register R%zu holds overlapping signals '%s' "
                              "and '%s'", reg, a.c_str(), b.c_str()),
                 "repack the lifetimes into disjoint registers"));
    }
  }
  for (const alloc::Lifetime& lt : d.lifetimes)
    if (lt.needsRegister && !d.regOfSignal.count(lt.producer))
      r.add(diag(kRtlMissingRegister, EntityKind::Node,
                 at(g.node(lt.producer).name),
                 util::format("signal '%s' crosses steps but has no register",
                              g.node(lt.producer).name.c_str()),
                 "allocate a register for every cross-step lifetime"));

  // -- RTL009: wiring (unconnected mux inputs) ------------------------------
  for (const rtl::AluInstance& a : d.alus) {
    const auto& arr = d.arrangement[static_cast<std::size_t>(a.index)];
    for (NodeId op : a.ops) {
      const dfg::Node& n = g.node(op);
      if (n.inputs.empty()) continue;
      const bool swap = arr.swapped.count(op) ? arr.swapped.at(op) : false;
      const NodeId l = swap && n.inputs.size() == 2 ? n.inputs[1] : n.inputs[0];
      if (!d.leftPort[static_cast<std::size_t>(a.index)].selectOf.count({op, l}))
        r.add(diag(kRtlUnconnectedPort, EntityKind::Port,
                   at(n.name, -1, a.index, g.node(l).name),
                   util::format("ALU%d left port cannot deliver '%s' to '%s'",
                                a.index, g.node(l).name.c_str(), n.name.c_str()),
                   "rewire the port so every operand has a mux input"));
      if (n.inputs.size() >= 2) {
        const NodeId rsig = swap ? n.inputs[0] : n.inputs[1];
        if (!d.rightPort[static_cast<std::size_t>(a.index)].selectOf.count({op, rsig}))
          r.add(diag(kRtlUnconnectedPort, EntityKind::Port,
                     at(n.name, -1, a.index, g.node(rsig).name),
                     util::format("ALU%d right port cannot deliver '%s' to '%s'",
                                  a.index, g.node(rsig).name.c_str(),
                                  n.name.c_str()),
                     "rewire the port so every operand has a mux input"));
      }
    }
  }
  return r;
}

LintReport lintBusPlan(const rtl::Datapath& d, const rtl::ControllerFsm& fsm,
                       const rtl::BusPlan& plan) {
  LintReport r;
  const std::vector<int> demand = rtl::busDemandPerStep(d, fsm);

  // RTL010: any step whose simultaneous distinct sources exceed the bus
  // count would force one bus to carry two drivers at once.
  int peak = 0;
  for (int step = 1; step < static_cast<int>(demand.size()); ++step) {
    const int k = demand[static_cast<std::size_t>(step)];
    peak = std::max(peak, k);
    if (k > plan.busCount)
      r.add(diag(kRtlBusContention, EntityKind::Bus,
                 at("", step, plan.busCount),
                 util::format("step %d needs %d simultaneous sources but the "
                              "plan has %d bus(es): some bus is driven by "
                              "multiple sources", step, k, plan.busCount),
                 "provision at least the peak per-step source count"));
  }

  // RTL011: buses beyond the peak demand are never driven in any step.
  for (int b = peak; b < plan.busCount; ++b)
    r.add(diag(kRtlBusIdle, EntityKind::Bus, at("", -1, b),
               util::format("bus %d is driven by zero sources in every step", b),
               "drop the idle bus to save wire area"));
  return r;
}

LintReport lintMicrocode(const rtl::Datapath& d, const rtl::ControllerFsm& fsm,
                         const rtl::MicrocodeRom& rom) {
  LintReport r;

  // RTL012: field names must reference existing ALUs / registers.
  for (const rtl::MicrocodeField& f : rom.fields) {
    int unit = -1;
    bool known = false;
    if (std::sscanf(f.name.c_str(), "alu%d.", &unit) == 1) {
      known = unit >= 0 && unit < static_cast<int>(d.alus.size());
    } else if (std::sscanf(f.name.c_str(), "R%d.", &unit) == 1) {
      known = unit >= 0 && unit < static_cast<int>(d.regs.count());
    } else if (f.name == "ctrl.next" || f.name == "ctrl.altNext") {
      known = true;  // sequencer fields reference FSM states, not units
    }
    if (!known)
      r.add(diag(kRtlBadFieldRef, EntityKind::Field,
                 at("", -1, unit, f.name),
                 util::format("microcode field '%s' references a nonexistent "
                              "datapath component", f.name.c_str()),
                 "regenerate the ROM from the current datapath"));
  }

  // RTL013: shape and width consistency.
  if (rom.words != fsm.numSteps ||
      rom.rows.size() != static_cast<std::size_t>(rom.words))
    r.add(diag(kRtlFieldOverflow, EntityKind::Design, {},
               util::format("ROM has %zu row(s) for %d word(s) over %d FSM "
                            "step(s)", rom.rows.size(), rom.words, fsm.numSteps)));
  for (std::size_t row = 0; row < rom.rows.size(); ++row) {
    if (rom.rows[row].size() != rom.fields.size()) {
      r.add(diag(kRtlFieldOverflow, EntityKind::Field,
                 at("", static_cast<int>(row) + 1),
                 util::format("row %zu has %zu value(s) for %zu field(s)", row + 1,
                              rom.rows[row].size(), rom.fields.size())));
      continue;
    }
    for (std::size_t f = 0; f < rom.fields.size(); ++f) {
      const int v = rom.rows[row][f];
      if (v < -1 || (v >= 0 && v >= (1 << rom.fields[f].bits)))
        r.add(diag(kRtlFieldOverflow, EntityKind::Field,
                   at("", static_cast<int>(row) + 1, -1, rom.fields[f].name),
                   util::format("value %d does not fit field '%s' (%d bit(s))",
                                v, rom.fields[f].name.c_str(),
                                rom.fields[f].bits)));
    }
  }
  return r;
}

}  // namespace mframe::analysis
