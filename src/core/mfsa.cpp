#include "core/mfsa.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "alloc/muxopt.h"
#include "core/frames.h"
#include "rtl/controller.h"
#include "core/grid.h"
#include "core/mfs.h"
#include "sched/timeframes.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::core {

namespace {

using dfg::FuType;
using dfg::NodeId;

/// One allocated ALU during the search. Its module can be *upgraded* to a
/// multifunction superset when a later operation of another type is merged
/// into it ("an addition may be assigned to single or multifunction ALUs
/// such as (+), (+-), (+>) or (+->), based on the cell library").
struct AluState {
  celllib::ModuleId module = 0;
  int index = 0;  ///< 0-based instance index == occupancy column - 1
  std::vector<NodeId> ops;
  alloc::MuxArrangement arrangement;
  double muxCost = 0.0;
};

/// Cheapest library module covering `caps` with the given stage count;
/// nullopt when the library has none.
std::optional<celllib::ModuleId> cheapestCovering(const celllib::CellLibrary& lib,
                                                  const std::set<FuType>& caps,
                                                  int stages) {
  std::optional<celllib::ModuleId> best;
  for (std::size_t i = 0; i < lib.modules().size(); ++i) {
    const celllib::Module& m = lib.modules()[i];
    if (m.stages != stages) continue;
    if (!std::includes(m.caps.begin(), m.caps.end(), caps.begin(), caps.end()))
      continue;
    if (!best || m.areaUm2 < lib.module(*best).areaUm2)
      best = static_cast<celllib::ModuleId>(i);
  }
  return best;
}

/// unplaceableOp for MFSA, which pipelines a type through the library's
/// multi-stage modules rather than through constraints.pipelinedFus.
std::optional<Unplaceable> unplaceableOnLibrary(const dfg::Dfg& g,
                                                const celllib::CellLibrary& lib,
                                                sched::Constraints c) {
  for (const celllib::Module& m : lib.modules())
    if (m.stages > 1) c.pipelinedFus.insert(m.caps.begin(), m.caps.end());
  return unplaceableOp(g, c);
}

}  // namespace

MfsaResult runMfsa(const dfg::Dfg& g, const celllib::CellLibrary& lib,
                   const MfsaOptions& opt) {
  const trace::Span span("mfsa");
  trace::bump(trace::Counter::MfsaRuns);
  MfsaResult res;
  if (const auto& err = g.validate()) {
    res.error = "invalid DFG: " + *err;
    return res;
  }

  std::set<FuType> neededTypes;
  for (NodeId id : g.operations()) neededTypes.insert(dfg::fuTypeOf(g.node(id).kind));
  if (auto err = lib.checkCoverage(neededTypes)) {
    res.error = *err;
    return res;
  }

  sched::Constraints c = opt.constraints;
  if (c.timeSteps <= 0) {
    res.error = "MFSA needs constraints.timeSteps > 0";
    return res;
  }
  if (auto bad = unplaceableOnLibrary(g, lib, c)) {
    res.error = bad->reason;
    return res;
  }
  std::string tfError;
  const auto tf = computeTimeFrames(g, c, &tfError);
  if (!tf) {
    res.error = tfError;
    return res;
  }
  const int cs = c.timeSteps;

  // Worst per-operation interconnect contribution: the mux table's largest
  // two increments, or (bus mode) two new bus wires plus two taps.
  const double fMuxMax =
      opt.interconnect == InterconnectStyle::Mux
          ? lib.maxMuxIncrement()
          : 2.0 * (opt.busModel.busWireUm2 + opt.busModel.receiverUm2);
  const double C = mfsaTimeConstant(lib, opt.weights) +
                   opt.weights.mux * fMuxMax / std::max(opt.weights.time, 1e-9);
  const double worstContribution =
      opt.weights.time * C * cs + opt.weights.alu * lib.maxModuleArea() +
      opt.weights.mux * fMuxMax + opt.weights.reg * 2.0 * lib.regCost();

  const auto order = topoConsistentOrder(
      g, sched::priorityOrder(g, *tf, opt.priorityRule), &res.error);
  if (!order) return res;

  // Frontier search is exact only where the per-(ALU, module) contribution
  // is non-decreasing in the step: f_MUX/f_ALU step-independent (mux
  // interconnect), f_TIME and f_REG non-decreasing (non-negative weights
  // and costs). Anything else keeps the exhaustive scan.
  const bool frontier =
      (opt.frameMode == MoveFrameMode::Frontier ||
       (opt.frameMode == MoveFrameMode::Auto &&
        g.size() >= kFrontierAutoThreshold)) &&
      opt.interconnect == InterconnectStyle::Mux && opt.weights.time >= 0.0 &&
      opt.weights.alu >= 0.0 && opt.weights.mux >= 0.0 &&
      opt.weights.reg >= 0.0 && C >= 0.0 && lib.regCost() >= 0.0;

  // Steps 2-3 of MFS, shared by MFSA: per-type column budgets. current_j
  // starts at the balanced minimum ceil(N_j / cs) and grows only when a move
  // frame comes up empty (local rescheduling).
  std::vector<int> maxCols(dfg::kNumFuTypes, 1);
  std::vector<int> current(dfg::kNumFuTypes, 1);
  std::vector<bool> userLimited(dfg::kNumFuTypes, false);
  for (std::size_t t = 0; t < dfg::kNumFuTypes; ++t) {
    const auto ft = static_cast<FuType>(t);
    auto lim = c.fuLimit.find(ft);
    if (lim != c.fuLimit.end()) {
      maxCols[t] = lim->second;
      userLimited[t] = true;
    } else {
      maxCols[t] = std::max(1, tf->upperBound(ft));
    }
    const auto nOps = static_cast<int>(g.countOfType(ft));
    current[t] = std::clamp(
        static_cast<int>(std::ceil(static_cast<double>(nOps) / cs)), 1,
        maxCols[t]);
  }

  const int maxRestarts =
      static_cast<int>(g.size()) * static_cast<int>(dfg::kNumFuTypes) * 8 + 64;
  int restarts = 0;

  // f_REG bookkeeping: latest cross-step consumer seen per signal, 0 = none
  // recorded yet (placed steps are >= 1, so 0 is free as the sentinel).
  std::vector<int> maxUse(g.size(), 0);

  while (true) {  // local-rescheduling loop
    sched::Schedule s(g);
    s.setNumSteps(cs);
    ColumnOccupancy occ(g, c);
    FrameCalculator fc(g, c, *tf);
    std::vector<AluState> alus;
    res.termsOf.clear();
    res.liapunovTrace.clear();

    maxUse.assign(g.size(), 0);
    auto producerEnd = [&](NodeId sig) {
      if (!dfg::isSchedulable(g.node(sig).kind)) return 0;  // inputs: before step 1
      return s.isPlaced(sig) ? s.stepOf(sig) + g.node(sig).cycles - 1 : 0;
    };
    // Per-input (producerEnd, latest-use) pairs for the operation under
    // consideration, computed once before the candidate loops; neither value
    // changes until the move commits, so every (ALU × step) candidate reads
    // the cached pair instead of redoing the map lookups.
    struct InputState {
      int pe = 0;    ///< producer's last execution step (0 = before step 1)
      int used = 0;  ///< latest cross-step consumer recorded so far
    };
    std::vector<InputState> inState;

    // Instances supporting each FU type, maintained incrementally on commit
    // (fresh ALUs and multifunction upgrades) instead of rescanning `alus`
    // for every operation.
    std::vector<int> support(dfg::kNumFuTypes, 0);
    auto addSupport = [&](celllib::ModuleId m, int sign) {
      for (std::size_t t = 0; t < dfg::kNumFuTypes; ++t)
        if (lib.module(m).supports(static_cast<FuType>(t)))
          support[t] += sign;
    };

    // Bus-mode interconnect bookkeeping: transfers per step and their peak
    // (== bus count). An operand transfers when it is not a hardwired
    // constant; chained reads ride bus wires from the producer ALU too.
    std::vector<int> busTransfers(static_cast<std::size_t>(cs) + 1, 0);
    int busPeak = 0;
    auto busedOperands = [&](NodeId op) {
      int k = 0;
      for (NodeId in : g.node(op).inputs)
        if (g.node(in).kind != dfg::OpKind::Const) ++k;
      return k;
    };
    auto busDelta = [&](NodeId op, int step) {
      const int k = busedOperands(op);
      const int after =
          std::max(busPeak, busTransfers[static_cast<std::size_t>(step)] + k);
      return opt.busModel.busWireUm2 * (after - busPeak) +
             opt.busModel.receiverUm2 * k;
    };

    double v = worstContribution * static_cast<double>(order->size());
    if (opt.traceLiapunov) res.liapunovTrace.push_back(v);

    bool restart = false;
    for (NodeId id : *order) {
      const dfg::Node& n = g.node(id);
      const FuType type = dfg::fuTypeOf(n.kind);
      const auto ti = static_cast<std::size_t>(type);

      inState.clear();
      for (NodeId in : n.inputs) {
        if (g.node(in).kind == dfg::OpKind::Const) continue;  // hardwired
        const int pe = producerEnd(in);
        const int used = maxUse[in];
        inState.push_back({pe, used == 0 ? pe : used});
      }
      auto newRegsAt = [&](int step) {
        int count = 0;
        for (const InputState& is : inState)
          // First cross-step consumer of a signal implies a new register;
          // chained / same-step reads need no storage yet.
          if (step > is.pe && is.used <= is.pe) ++count;
        return count;
      };

      // f_MUX of a fresh ALU is the same for every capable module: the
      // arrangement of {id} alone — one signal per populated port. Frontier
      // mode prices it arithmetically; exhaustive mode keeps the literal
      // single-op arrangement (and its mux.fullArrangements bump).
      const double freshMux =
          opt.interconnect != InterconnectStyle::Mux ? 0.0
          : frontier ? lib.muxCost(n.inputs.empty() ? 0 : 1) +
                           lib.muxCost(n.inputs.size() < 2 ? 0 : 1)
                     : alloc::muxCostOf(lib, alloc::arrangeInputs(g, {id}));

      struct Candidate {
        int alu = -1;                 ///< existing ALU index, or -1 = fresh
        celllib::ModuleId module = 0; ///< module after placement (upgrades!)
        int step = 0;
        MfsaTerms terms;
        double f = 0.0;
      };
      std::vector<Candidate> cands;

      // Frontier mode: one dependency window per op replaces the per-step
      // depOk pred walks across every candidate ALU. Its feasible steps
      // form the run [depLo, depHi] (depLo == 0: none).
      int depLo = 0, depHi = 0;
      if (frontier) {
        const auto dw = fc.depWindow(s, id);
        depLo = dw.firstStep(tf->asap(id), tf->alap(id));
        depHi = dw.lastStep(depLo, tf->alap(id));
      }

      auto pushSteps = [&](AluState* owner, celllib::ModuleId module,
                           double fAlu) {
        // Interconnect term: mux-cost delta under the best arrangement, or
        // the bus-cost delta when building a bus architecture. The mux delta
        // is step-independent; the bus delta depends on the chosen step.
        // For an existing ALU the delta comes from the incremental
        // arrangeInputsDelta against the cached arrangement.
        const int aluIdx = owner ? owner->index : -1;
        double fMux = 0.0;
        if (opt.interconnect == InterconnectStyle::Mux) {
          if (owner == nullptr) {
            fMux = freshMux;
          } else if (frontier) {
            // O(1) probe pricing the O(1) greedy commit below.
            const auto d = alloc::appendDelta(g, owner->arrangement, id);
            fMux = lib.muxCost(static_cast<int>(d.left)) +
                   lib.muxCost(static_cast<int>(d.right)) - owner->muxCost;
          } else {
            const auto d =
                alloc::arrangeInputsDelta(g, owner->arrangement, owner->ops, id);
            fMux = lib.muxCost(static_cast<int>(d.left)) +
                   lib.muxCost(static_cast<int>(d.right)) - owner->muxCost;
          }
        }
        auto pushOne = [&](int step) {
          Candidate cd;
          cd.alu = aluIdx;
          cd.module = module;
          cd.step = step;
          cd.terms.fTime = C * step;
          cd.terms.fAlu = fAlu;
          cd.terms.fMux = opt.interconnect == InterconnectStyle::Mux
                              ? fMux
                              : busDelta(id, step);
          cd.terms.fReg = lib.regCost() * newRegsAt(step);
          cd.f = cd.terms.weighted(opt.weights);
          cands.push_back(cd);
        };
        if (frontier) {
          // The contribution is non-decreasing in the step for this fixed
          // (ALU, module) and the tie-break prefers the earlier step, so
          // the earliest feasible step dominates all later ones.
          if (depLo == 0) return;
          const int step =
              aluIdx < 0 ? depLo : occ.firstFit(id, aluIdx + 1, depLo, depHi);
          if (step != 0) pushOne(step);
          return;
        }
        for (int step = tf->asap(id); step <= tf->alap(id); ++step) {
          if (!fc.depOk(s, id, step).ok) continue;
          if (aluIdx >= 0 && !occ.canPlace(id, aluIdx + 1, step)) continue;
          pushOne(step);
        }
      };

      auto generate = [&] {
        cands.clear();
        const bool budgetOpen = support[ti] < current[ti];
        for (AluState& a : alus) {
          const celllib::Module& m = lib.module(a.module);
          if (opt.style == rtl::DesignStyle::NoSelfLoop) {
            // Section 4.2 style 2: an operation may not share an ALU with a
            // predecessor or successor.
            bool clash = false;
            for (NodeId p : g.opPreds(id))
              if (std::find(a.ops.begin(), a.ops.end(), p) != a.ops.end())
                clash = true;
            for (NodeId sc : g.opSuccs(id))
              if (std::find(a.ops.begin(), a.ops.end(), sc) != a.ops.end())
                clash = true;
            if (clash) continue;
          }
          if (m.supports(type)) {
            pushSteps(&a, a.module, /*fAlu=*/0.0);
          } else if (budgetOpen) {
            // Merge by upgrading the ALU to a multifunction superset:
            // f_ALU = the area increment of the richer module.
            std::set<FuType> caps = m.caps;
            caps.insert(type);
            if (auto up = cheapestCovering(lib, caps, m.stages)) {
              const double delta = lib.module(*up).areaUm2 - m.areaUm2;
              pushSteps(&a, *up, delta);
            }
          }
        }
        if (budgetOpen) {
          for (celllib::ModuleId m : lib.capableModules(type))
            pushSteps(nullptr, m, lib.module(m).areaUm2);
        }
        trace::bump(trace::Counter::MfsaCandidates, cands.size());
      };

      // On an exact Liapunov tie, prefer the earlier step, then *reuse* —
      // an existing instance (lowest index) beats opening a fresh ALU.
      // (Ranking fresh candidates, alu == -1, ahead of existing ones used to
      // open a needless instance whenever costs tie, e.g. under w_A = 0.)
      // Equal ranks keep the first-encountered candidate, preserving the
      // library order among fresh modules.
      auto rankOf = [](const Candidate& cd) {
        return std::make_tuple(cd.step, cd.alu < 0 ? 1 : 0,
                               cd.alu < 0 ? 0 : cd.alu);
      };
      auto pick = [&]() -> const Candidate* {
        const Candidate* best = nullptr;
        for (const Candidate& cd : cands)
          if (!best || cd.f < best->f ||
              (cd.f == best->f && rankOf(cd) < rankOf(*best)))
            best = &cd;
        return best;
      };

      generate();
      const Candidate* chosen = pick();
      if (!chosen && frontier &&
          (current[ti] < maxCols[ti] || !userLimited[ti])) {
        // Frontier local rescheduling: widen the column budget in place and
        // retry this one operation — the widening opens a fresh-ALU
        // candidate at the dependency window's first step, so earlier
        // placements stay valid and the pass never re-runs from scratch.
        // (The exhaustive path below keeps the full restart: re-placing
        // every op from scratch is what the small-benchmark goldens pin
        // down, but it multiplies total work by the restart count, which
        // dominated 10^5-op runs.) If even a fresh ALU has no feasible
        // step, the dependency window itself is empty and only a full
        // restart can help, so fall through.
        if (++restarts > maxRestarts) {
          res.error = "MFSA restart budget exhausted";
          return res;
        }
        trace::bump(trace::Counter::MfsaRestarts);
        if (current[ti] < maxCols[ti]) {
          ++current[ti];
        } else {
          ++maxCols[ti];
          ++current[ti];
        }
        generate();
        chosen = pick();
      }

      if (!chosen) {
        // Empty move frame: widen the type's column budget and reschedule
        // locally (Section 3.2 step 4 / Section 4.2).
        if (current[ti] < maxCols[ti]) {
          ++current[ti];
        } else if (!userLimited[ti]) {
          ++maxCols[ti];
          ++current[ti];
        } else {
          res.error = util::format(
              "no feasible MFSA position for '%s' within %d %s ALUs",
              n.name.c_str(), maxCols[ti],
              std::string(dfg::fuTypeName(type)).c_str());
          return res;
        }
        if (++restarts > maxRestarts) {
          res.error = "MFSA restart budget exhausted";
          return res;
        }
        trace::bump(trace::Counter::MfsaRestarts);
        restart = true;
        break;
      }

      // Commit the move.
      int aluIdx = chosen->alu;
      if (aluIdx < 0) {
        AluState a;
        a.index = static_cast<int>(alus.size());
        alus.push_back(std::move(a));
        aluIdx = alus.back().index;
        if (lib.module(chosen->module).stages > 1)
          occ.setPipelined(aluIdx + 1, true);
        addSupport(chosen->module, +1);
      } else if (alus[static_cast<std::size_t>(aluIdx)].module !=
                 chosen->module) {
        // Multifunction upgrade: swap the instance's capability set.
        addSupport(alus[static_cast<std::size_t>(aluIdx)].module, -1);
        addSupport(chosen->module, +1);
      }
      AluState& a = alus[static_cast<std::size_t>(aluIdx)];
      a.module = chosen->module;  // fresh assignment or upgrade
      // Frontier mode commits the op into the cached arrangement in O(1)
      // (exact in the commutative / already-pinned cases, greedy with
      // bounded drift otherwise — re-arranging the whole op list per commit
      // is quadratic in ops-per-ALU). Exhaustive mode rebuilds from the
      // complete op list, keeping the legacy mux.fullArrangements counter
      // and the provably minimal arrangement.
      a.ops.push_back(id);
      if (frontier) {
        alloc::appendToArrangement(g, a.arrangement, id);
      } else {
        a.arrangement = alloc::arrangeInputs(g, a.ops);
      }
      a.muxCost = alloc::muxCostOf(lib, a.arrangement);
      trace::bump(trace::Counter::MfsaCommits);

      occ.place(id, aluIdx + 1, chosen->step);
      s.place(id, chosen->step, aluIdx + 1);
      fc.recordPlacement(s, id, chosen->step);
      if (opt.interconnect == InterconnectStyle::Bus) {
        busTransfers[static_cast<std::size_t>(chosen->step)] += busedOperands(id);
        busPeak = std::max(busPeak,
                           busTransfers[static_cast<std::size_t>(chosen->step)]);
      }
      for (NodeId in : n.inputs) {
        if (g.node(in).kind == dfg::OpKind::Const) continue;
        if (chosen->step > producerEnd(in))
          maxUse[in] = std::max(maxUse[in], chosen->step);
      }

      res.termsOf[id] = chosen->terms;
      trace::bump(trace::Counter::LiapunovUpdates);
      v -= worstContribution - chosen->f;
      if (opt.traceLiapunov) res.liapunovTrace.push_back(v);
    }
    if (restart) continue;

    // Assemble the RTL structure and its cost.
    std::vector<rtl::AluInstance> insts;
    insts.reserve(alus.size());
    for (const AluState& a : alus) insts.push_back({a.module, a.index, a.ops});
    res.datapath = rtl::buildDatapath(g, lib, s, std::move(insts));
    res.cost = rtl::evaluateCost(res.datapath);
    if (opt.interconnect == InterconnectStyle::Bus) {
      // Replace the mux interconnect area by the final shared-bus plan.
      const auto fsm = rtl::buildController(res.datapath);
      res.busPlan = rtl::planBuses(res.datapath, fsm, opt.busModel);
      res.cost.muxArea = res.busPlan->totalCost;
      res.cost.total = res.cost.aluArea + res.cost.regArea + res.cost.muxArea;
    }
    res.steps = cs;
    res.restarts = restarts;
    res.feasible = true;
    return res;
  }
}

MfsaResult runMfsaResourceConstrained(const dfg::Dfg& g,
                                      const celllib::CellLibrary& lib,
                                      MfsaOptions opt, int maxStepsCap) {
  MfsaResult last;
  if (auto bad = unplaceableOnLibrary(g, lib, opt.constraints)) {
    last.error = bad->reason;
    return last;
  }
  std::string tfError;
  sched::Constraints probe = opt.constraints;
  probe.timeSteps = 0;
  const auto tf = computeTimeFrames(g, probe, &tfError);
  if (!tf) {
    last.error = tfError;
    return last;
  }
  int cs = std::max(opt.constraints.timeSteps, tf->criticalSteps());
  for (; cs <= maxStepsCap; ++cs) {
    opt.constraints.timeSteps = cs;
    last = runMfsa(g, lib, opt);
    if (last.feasible) return last;
    // Infeasibility under hard budgets surfaces as an exhausted column
    // budget; any other error will not improve with more steps.
    if (last.error.find("no feasible MFSA position") == std::string::npos)
      return last;
  }
  last.error = util::format("no feasible design within %d steps", maxStepsCap);
  return last;
}

}  // namespace mframe::core
