// Differential oracle for the schedule and datapath verifiers.
//
// The occupancy checks (SCH007 per FU column, RTL005 per ALU, RTL007 per
// register) used to compare all pairs of items sharing a unit, which made
// verification quadratic. They now bucket by control step and sweep by
// lifetime (src/analysis/occupancy.*). The previous lintSchedule and
// lintDatapath are kept below, verbatim (pairwise loops and node-keyed maps
// included), as the reference: on the paper benchmarks under every
// scheduler, on random graphs with branch scopes, multicycle ops,
// functional and structural pipelining, and on heavily corrupted results,
// lintSchedule and lintDatapath must report exactly what the reference
// reports, in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/rtl_rules.h"
#include "analysis/rules.h"
#include "analysis/sched_rules.h"
#include "baseline/asap_sched.h"
#include "baseline/fds.h"
#include "baseline/list_sched.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "sched/timeframes.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"
#include "workloads/random_dfg.h"

namespace mframe::analysis {
namespace {

// ---------------------------------------------------------------------------
// Reference: the verifiers as they were before the bucketing.
// ---------------------------------------------------------------------------
namespace ref {

using dfg::NodeId;
using sched::Constraints;
using sched::Placement;
using sched::Schedule;

/// Steps during which `n` occupies its FU column, folded mod latency when
/// functional pipelining is on. Structurally pipelined FUs are handled
/// separately (start-step conflicts only).
std::vector<int> occupiedSteps(const dfg::Node& n, const Placement& p,
                               const Constraints& c) {
  std::vector<int> steps;
  for (int s = p.step; s < p.step + n.cycles; ++s)
    steps.push_back(c.latency > 0 ? ((s - 1) % c.latency) : s);
  return steps;
}

bool stepsIntersect(const std::vector<int>& a, const std::vector<int>& b) {
  for (int x : a)
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  return false;
}

/// Folded steps occupied by `n` on a (possibly pipelined) ALU.
std::vector<int> occupied(const dfg::Dfg& g, const sched::Schedule& s,
                          NodeId n, bool pipelined, int latency) {
  auto fold = [&](int st) { return latency > 0 ? (st - 1) % latency : st; };
  std::vector<int> out;
  const int start = s.stepOf(n);
  const int cycles = pipelined ? 1 : g.node(n).cycles;
  for (int st = start; st < start + cycles; ++st) out.push_back(fold(st));
  return out;
}

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

LintReport lintSchedule(const Schedule& s, const Constraints& c) {
  LintReport r;
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
  // chainOff[n] = combinational offset (ns) at which n's result is ready
  // within its own step, or 0 when the value crosses a step boundary.
  std::map<NodeId, double> chainOff;
  const auto order = g.topoOrder();
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
    for (std::size_t i = 0; i < ops.size(); ++i) {
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        const dfg::Node& a = g.node(ops[i]);
        const dfg::Node& b = g.node(ops[j]);
        if (g.mutuallyExclusive(a.id, b.id)) continue;
        bool conflict;
        if (pipelined) {
          // One initiation per step (fold starts mod latency when L > 0).
          auto fold = [&](int st) { return c.latency > 0 ? (st - 1) % c.latency : st; };
          conflict = fold(s.stepOf(a.id)) == fold(s.stepOf(b.id));
        } else {
          conflict = stepsIntersect(occupiedSteps(a, s.at(a.id), c),
                                    occupiedSteps(b, s.at(b.id), c));
        }
        if (conflict)
          r.add(diag(kSchedOccupancy, EntityKind::Fu,
                     at(a.name, s.stepOf(a.id), col, b.name),
                     util::format("occupancy conflict on %s#%d: '%s'@%d vs '%s'@%d",
                                  std::string(dfg::fuTypeName(type)).c_str(), col,
                                  a.name.c_str(), s.stepOf(a.id), b.name.c_str(),
                                  s.stepOf(b.id)),
                     "move one operation to a free column or another step"));
      }
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

LintReport lintDatapath(const rtl::Datapath& d, const sched::Constraints& c,
                        rtl::DesignStyle style) {
  LintReport r;
  const dfg::Dfg& g = *d.graph;

  // -- RTL001..RTL004: binding ----------------------------------------------
  std::map<NodeId, int> seen;
  for (const rtl::AluInstance& a : d.alus) {
    const celllib::Module& m = d.lib->module(a.module);
    for (NodeId op : a.ops) {
      if (seen.count(op))
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
    if (!seen.count(op))
      r.add(diag(kRtlUnboundOp, EntityKind::Node, at(g.node(op).name),
                 util::format("op '%s' is not bound to any ALU",
                              g.node(op).name.c_str())));
  if (!r.empty()) return r;  // later checks assume a total binding

  // -- RTL005: ALU occupancy ------------------------------------------------
  for (const rtl::AluInstance& a : d.alus) {
    const bool pipelined = d.lib->module(a.module).stages > 1;
    for (std::size_t i = 0; i < a.ops.size(); ++i) {
      for (std::size_t j = i + 1; j < a.ops.size(); ++j) {
        const NodeId x = a.ops[i];
        const NodeId y = a.ops[j];
        if (g.mutuallyExclusive(x, y)) continue;
        const auto ox = occupied(g, d.schedule, x, pipelined, c.latency);
        const auto oy = occupied(g, d.schedule, y, pipelined, c.latency);
        const bool clash = std::any_of(ox.begin(), ox.end(), [&](int st) {
          return std::find(oy.begin(), oy.end(), st) != oy.end();
        });
        if (clash)
          r.add(diag(kRtlAluOverlap, EntityKind::Alu,
                     at(g.node(x).name, d.schedule.stepOf(x), a.index,
                        g.node(y).name),
                     util::format("ALU%d executes '%s' and '%s' concurrently",
                                  a.index, g.node(x).name.c_str(),
                                  g.node(y).name.c_str()),
                     "rebind one operation or reschedule it"));
      }
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
    for (std::size_t i = 0; i < packed.size(); ++i)
      for (std::size_t j = i + 1; j < packed.size(); ++j)
        if (d.lifetimes[packed[i]].overlaps(d.lifetimes[packed[j]]))
          r.add(diag(kRtlRegisterOverlap, EntityKind::Register,
                     at(g.node(d.lifetimes[packed[i]].producer).name, -1,
                        static_cast<int>(reg),
                        g.node(d.lifetimes[packed[j]].producer).name),
                     util::format("register R%zu holds overlapping signals '%s' "
                                  "and '%s'", reg,
                                  g.node(d.lifetimes[packed[i]].producer).name.c_str(),
                                  g.node(d.lifetimes[packed[j]].producer).name.c_str()),
                     "repack the lifetimes into disjoint registers"));
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

}  // namespace ref

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

using dfg::FuType;
using dfg::NodeId;

/// Diagnostics of the occupancy rules seen by the oracle so far; the
/// corruption tests assert they are not vacuous.
struct Tally {
  std::size_t sch007 = 0, rtl005 = 0, rtl007 = 0, cases = 0;
};

void expectSameSchedule(const sched::Schedule& s, const sched::Constraints& c,
                        const std::string& what, Tally& t) {
  const LintReport want = ref::lintSchedule(s, c);
  const LintReport got = lintSchedule(s, c);
  EXPECT_EQ(got.messages(), want.messages()) << what;
  EXPECT_EQ(got.renderJson(what), want.renderJson(what)) << what;
  t.sch007 += want.byRule(kSchedOccupancy).size();
  ++t.cases;
}

void expectSameDatapath(const rtl::Datapath& d, const sched::Constraints& c,
                        const std::string& what, Tally& t) {
  for (const rtl::DesignStyle style :
       {rtl::DesignStyle::Unrestricted, rtl::DesignStyle::NoSelfLoop}) {
    const LintReport want = ref::lintDatapath(d, c, style);
    const LintReport got = lintDatapath(d, c, style);
    EXPECT_EQ(got.messages(), want.messages()) << what;
    EXPECT_EQ(got.renderJson(what), want.renderJson(what)) << what;
    t.rtl005 += want.byRule(kRtlAluOverlap).size();
    t.rtl007 += want.byRule(kRtlRegisterOverlap).size();
    ++t.cases;
  }
}

/// The constraint variants every schedule is re-checked under: plain,
/// functional pipelining at L = 2 and 3, and pipelined multipliers.
std::vector<sched::Constraints> variants(const sched::Constraints& base) {
  std::vector<sched::Constraints> out;
  for (const int latency : {0, 2, 3})
    for (const bool pipelined : {false, true}) {
      sched::Constraints c = base;
      c.latency = latency;
      if (pipelined) c.pipelinedFus.insert(FuType::Multiplier);
      out.push_back(c);
    }
  return out;
}

void checkScheduleAndBinding(const dfg::Dfg& g, const sched::Schedule& s,
                             const sched::Constraints& c,
                             const std::string& what, Tally& t) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  for (const sched::Constraints& v : variants(c))
    expectSameSchedule(s, v, what, t);
  const rtl::Datapath d =
      rtl::buildDatapath(g, lib, s, rtl::bindByColumns(g, lib, s));
  expectSameDatapath(d, c, what + " (column binding)", t);
}

std::vector<dfg::Dfg> paperSuite() {
  std::vector<dfg::Dfg> out;
  out.push_back(workloads::tseng());
  out.push_back(workloads::chained());
  out.push_back(workloads::diffeq());
  out.push_back(workloads::fir8());
  out.push_back(workloads::arLattice());
  out.push_back(workloads::ewfLike());
  out.push_back(workloads::fdctLike());
  out.push_back(workloads::iirBiquads());
  return out;
}

/// Move `op` from whichever ALU holds it onto ALU `to` (binding stays total
/// and unique, so RTL001..RTL004 stay quiet and RTL005+ run).
void rebind(rtl::Datapath& d, NodeId op, std::size_t to) {
  for (rtl::AluInstance& a : d.alus)
    a.ops.erase(std::remove(a.ops.begin(), a.ops.end(), op), a.ops.end());
  d.alus[to].ops.push_back(op);
  d.aluOf[op] = d.alus[to].index;
}

/// Pile every op onto the first ALU that supports its type.
void pileOntoFirstCapableAlu(rtl::Datapath& d) {
  const dfg::Dfg& g = *d.graph;
  for (const NodeId op : g.operations()) {
    const FuType t = dfg::fuTypeOf(g.node(op).kind);
    for (std::size_t a = 0; a < d.alus.size(); ++a)
      if (d.lib->module(d.alus[a].module).supports(t)) {
        rebind(d, op, a);
        break;
      }
  }
}

// ---------------------------------------------------------------------------
// Paper benchmarks x {mfs, mfsa, asap, list, fds}
// ---------------------------------------------------------------------------

TEST(VerifierOracle, PaperBenchmarksUnderEveryScheduler) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  Tally t;
  for (const dfg::Dfg& g : paperSuite()) {
    const auto asap = baseline::runAsap(g, {});
    ASSERT_TRUE(asap.feasible) << g.name() << ": " << asap.error;
    sched::Constraints c;
    c.timeSteps = asap.steps + 1;
    checkScheduleAndBinding(g, asap.schedule, c, g.name() + " asap", t);

    core::MfsOptions mo;
    mo.constraints = c;
    const auto mfs = core::runMfs(g, mo);
    ASSERT_TRUE(mfs.feasible) << g.name() << ": " << mfs.error;
    checkScheduleAndBinding(g, mfs.schedule, c, g.name() + " mfs", t);

    const auto list = baseline::runListScheduling(g, {});
    ASSERT_TRUE(list.feasible) << g.name() << ": " << list.error;
    checkScheduleAndBinding(g, list.schedule, c, g.name() + " list", t);

    const auto fds = baseline::runForceDirected(g, c);
    ASSERT_TRUE(fds.feasible) << g.name() << ": " << fds.error;
    checkScheduleAndBinding(g, fds.schedule, c, g.name() + " fds", t);

    core::MfsaOptions ao;
    ao.constraints = c;
    const auto mfsa = core::runMfsa(g, lib, ao);
    ASSERT_TRUE(mfsa.feasible) << g.name() << ": " << mfsa.error;
    for (const sched::Constraints& v : variants(c))
      expectSameSchedule(mfsa.datapath.schedule, v, g.name() + " mfsa", t);
    expectSameDatapath(mfsa.datapath, c, g.name() + " mfsa", t);
  }
  EXPECT_EQ(t.cases, 8u * (4u * 8u + 6u + 2u));
  // Folding mod L and pipelined multipliers make some variants conflict.
  EXPECT_GT(t.sch007, 0u);
}

// ---------------------------------------------------------------------------
// Random graphs: branch scopes, two-cycle multiplies, L > 0, pipelined FUs
// and modules, then random step / column / ALU corruptions.
// ---------------------------------------------------------------------------

TEST(VerifierOracle, RandomGraphsAndCorruptions) {
  static const celllib::CellLibrary pipelinedLib =
      celllib::ncrLike({.pipelinedMultiplier = true});
  Tally t;
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    workloads::RandomDfgOptions o;
    o.seed = seed;
    o.numOps = 40;
    o.layerWidth = 6;
    o.mulPercent = 40;
    o.twoCyclePercent = 50;
    o.branchPercent = 40;
    const dfg::Dfg g = workloads::randomDfg(o);
    const auto tf = sched::computeTimeFrames(g, {});
    ASSERT_TRUE(tf.has_value());
    const std::string name = util::format("seed %u", seed);
    std::mt19937 rng(seed);

    for (const sched::Constraints& v : variants({})) {
      core::MfsOptions mo;
      mo.constraints = v;
      mo.constraints.timeSteps = tf->criticalSteps() + 1 + v.latency;
      const auto r = core::runMfs(g, mo);
      if (!r.feasible) continue;
      const std::string what =
          name + util::format(" L=%d%s", v.latency,
                              v.pipelinedFus.empty() ? "" : " pipelined");
      checkScheduleAndBinding(g, r.schedule, mo.constraints, what, t);
      const auto ops = g.operations();
      for (int trial = 0; trial < 8; ++trial) {
        sched::Schedule s = r.schedule;
        for (int k = 0; k < 3; ++k) {
          const NodeId victim = ops[rng() % ops.size()];
          s.place(victim, 1 + static_cast<int>(rng() % s.numSteps()),
                  1 + static_cast<int>(rng() % 3));
        }
        expectSameSchedule(s, mo.constraints, what + " corrupted", t);
      }
    }

    for (const int latency : {0, 2}) {
      core::MfsaOptions ao;
      ao.constraints.timeSteps = tf->criticalSteps() + 2 + latency;
      ao.constraints.latency = latency;
      const auto r = core::runMfsa(g, pipelinedLib, ao);
      if (!r.feasible) continue;
      const std::string what = name + util::format(" mfsa L=%d", latency);
      expectSameDatapath(r.datapath, ao.constraints, what, t);
      const auto ops = g.operations();
      for (int trial = 0; trial < 8; ++trial) {
        rtl::Datapath d = r.datapath;
        for (int k = 0; k < 3; ++k) {
          const NodeId victim = ops[rng() % ops.size()];
          const FuType type = dfg::fuTypeOf(g.node(victim).kind);
          const std::size_t to = rng() % d.alus.size();
          if (d.lib->module(d.alus[to].module).supports(type))
            rebind(d, victim, to);
          else
            d.schedule.place(victim,
                             1 + static_cast<int>(rng() % d.schedule.numSteps()),
                             d.schedule.columnOf(victim));
        }
        expectSameDatapath(d, ao.constraints, what + " corrupted", t);
      }
    }
  }
  EXPECT_GT(t.cases, 500u);
  EXPECT_GT(t.sch007, 0u);
  EXPECT_GT(t.rtl005, 0u);
}

// ---------------------------------------------------------------------------
// Heavy corruption: many ops in one column, on one ALU, in one register.
// ---------------------------------------------------------------------------

TEST(VerifierOracle, ManyOpsInOneColumn) {
  Tally t;
  for (const dfg::Dfg& g : paperSuite()) {
    const auto asap = baseline::runAsap(g, {});
    ASSERT_TRUE(asap.feasible);
    sched::Constraints c;
    c.timeSteps = asap.steps;
    sched::Schedule oneColumn = asap.schedule;
    sched::Schedule oneCell = asap.schedule;
    for (const NodeId op : g.operations()) {
      oneColumn.place(op, oneColumn.stepOf(op), 1);
      oneCell.place(op, 1, 1);
    }
    for (const sched::Constraints& v : variants(c)) {
      expectSameSchedule(oneColumn, v, g.name() + " one column", t);
      expectSameSchedule(oneCell, v, g.name() + " one cell", t);
    }
  }
  EXPECT_GT(t.sch007, 1000u);
}

TEST(VerifierOracle, ExclusiveOpsShareOneCell) {
  // Every op of a branchy graph piled into step 1, column 1: SCH007 must
  // report exactly the same-type pairs that are not mutually exclusive.
  Tally t;
  std::size_t exclusivePairs = 0;
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    workloads::RandomDfgOptions o;
    o.seed = seed;
    o.numOps = 48;
    o.branchPercent = 60;
    const dfg::Dfg g = workloads::randomDfg(o);
    const auto asap = baseline::runAsap(g, {});
    ASSERT_TRUE(asap.feasible);
    sched::Schedule s = asap.schedule;
    const auto ops = g.operations();
    std::size_t expected = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      s.place(ops[i], 1, 1);
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        if (dfg::fuTypeOf(g.node(ops[i]).kind) !=
            dfg::fuTypeOf(g.node(ops[j]).kind))
          continue;
        if (g.mutuallyExclusive(ops[i], ops[j]))
          ++exclusivePairs;
        else
          ++expected;
      }
    }
    sched::Constraints c;
    c.timeSteps = asap.steps;
    EXPECT_EQ(lintSchedule(s, c).byRule(kSchedOccupancy).size(), expected);
    for (const sched::Constraints& v : variants(c))
      expectSameSchedule(s, v, util::format("branchy seed %u", seed), t);
  }
  EXPECT_GT(exclusivePairs, 0u);
}

TEST(VerifierOracle, ManyOpsOnOneAlu) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  static const celllib::CellLibrary pipelinedLib =
      celllib::ncrLike({.pipelinedMultiplier = true});
  Tally t;
  for (const dfg::Dfg& g : paperSuite()) {
    for (const celllib::CellLibrary* l : {&lib, &pipelinedLib}) {
      const auto asap = baseline::runAsap(g, {});
      ASSERT_TRUE(asap.feasible);
      core::MfsaOptions ao;
      ao.constraints.timeSteps = asap.steps + 1;
      const auto r = core::runMfsa(g, *l, ao);
      ASSERT_TRUE(r.feasible) << g.name() << ": " << r.error;
      rtl::Datapath d = r.datapath;
      pileOntoFirstCapableAlu(d);
      for (const int latency : {0, 2, 3}) {
        sched::Constraints c = ao.constraints;
        c.latency = latency;
        expectSameDatapath(d, c, g.name() + " piled", t);
      }
    }
  }
  EXPECT_GT(t.rtl005, 100u);
}

TEST(VerifierOracle, ManyLifetimesInOneRegister) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  Tally t;
  std::mt19937 rng(7);
  for (const dfg::Dfg& g : paperSuite()) {
    core::MfsaOptions ao;
    ao.constraints.timeSteps = baseline::runAsap(g, {}).steps + 1;
    const auto r = core::runMfsa(g, lib, ao);
    ASSERT_TRUE(r.feasible) << g.name() << ": " << r.error;

    // Every lifetime in register 0, including those that need no register
    // (death <= birth), then extra lifetimes forced to birth == death.
    rtl::Datapath one = r.datapath;
    std::vector<std::size_t> all(one.lifetimes.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    one.regs.registers.assign(1, all);
    expectSameDatapath(one, ao.constraints, g.name() + " one register", t);
    for (std::size_t i = 0; i < one.lifetimes.size(); i += 3)
      one.lifetimes[i].death = one.lifetimes[i].birth;
    expectSameDatapath(one, ao.constraints, g.name() + " degenerate", t);

    // Random births and deaths in a small range: ties, empty and inverted
    // intervals everywhere, shuffled into three registers.
    for (int trial = 0; trial < 20; ++trial) {
      rtl::Datapath d = r.datapath;
      for (alloc::Lifetime& lt : d.lifetimes) {
        lt.birth = static_cast<int>(rng() % 6);
        lt.death = static_cast<int>(rng() % 6);
      }
      std::vector<std::size_t> order = all;
      std::shuffle(order.begin(), order.end(), rng);
      d.regs.registers.assign(3, {});
      for (std::size_t i = 0; i < order.size(); ++i)
        d.regs.registers[i % 3].push_back(order[i]);
      expectSameDatapath(d, ao.constraints, g.name() + " random lifetimes", t);
    }
  }
  EXPECT_GT(t.rtl007, 1000u);
}

}  // namespace
}  // namespace mframe::analysis
