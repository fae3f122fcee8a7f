// Differential oracle for MFSA's frontier move-frame search.
//
// For each (ALU, module) the frontier path takes the earliest step of the
// op's dependency window that the ALU's column can hold. It used to find
// that step by calling ColumnOccupancy::canPlace on every step from the
// window's start upward; it now asks ColumnOccupancy::firstFit, which skips
// steps held by unconditional ops a 64-bit word at a time. The previous
// frontier pass is kept below, per-step probe loop included, as the
// reference. On NN-shaped graphs, on a graph with conditionals and 2-cycle
// ops, and under the library with a 2-stage multiplier, both must agree on
// every op's step and ALU, every ALU's module, the cost, the restart count
// and the Liapunov trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc/muxopt.h"
#include "celllib/ncr_like.h"
#include "core/frames.h"
#include "core/grid.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "rtl/cost.h"
#include "rtl/datapath.h"
#include "sched/priority.h"
#include "sched/timeframes.h"
#include "workloads/random_dfg.h"

namespace mframe::core {
namespace {

using dfg::FuType;
using dfg::NodeId;

// ---------------------------------------------------------------------------
// Reference: the frontier MFSA pass with the per-step probe loop.
// ---------------------------------------------------------------------------
namespace ref {

struct Result {
  bool feasible = false;
  std::vector<int> stepOf;  ///< by node
  std::vector<int> aluOf;   ///< by node; 0-based ALU index
  std::vector<celllib::ModuleId> modules;  ///< by ALU
  double costTotal = 0.0;
  int restarts = 0;
  std::vector<double> liapunovTrace;
};

struct AluState {
  celllib::ModuleId module = 0;
  int index = 0;
  std::vector<NodeId> ops;
  alloc::MuxArrangement arrangement;
  double muxCost = 0.0;
};

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

/// runMfsa with frameMode = Frontier and mux interconnect, as it was before
/// firstFit: the feasibility checks the test inputs pass are left out.
Result runFrontierMfsa(const dfg::Dfg& g, const celllib::CellLibrary& lib,
                       const MfsaOptions& opt) {
  Result res;
  const sched::Constraints c = opt.constraints;
  const auto tf = sched::computeTimeFrames(g, c);
  if (!tf) return res;
  const int cs = c.timeSteps;

  const double fMuxMax = lib.maxMuxIncrement();
  const double C = mfsaTimeConstant(lib, opt.weights) +
                   opt.weights.mux * fMuxMax / std::max(opt.weights.time, 1e-9);
  const double worstContribution =
      opt.weights.time * C * cs + opt.weights.alu * lib.maxModuleArea() +
      opt.weights.mux * fMuxMax + opt.weights.reg * 2.0 * lib.regCost();

  const auto order =
      topoConsistentOrder(g, sched::priorityOrder(g, *tf, opt.priorityRule));
  if (!order) return res;

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
  std::vector<int> maxUse(g.size(), 0);

  while (true) {
    sched::Schedule s(g);
    s.setNumSteps(cs);
    ColumnOccupancy occ(g, c);
    FrameCalculator fc(g, c, *tf);
    std::vector<AluState> alus;
    res.liapunovTrace.clear();

    maxUse.assign(g.size(), 0);
    auto producerEnd = [&](NodeId sig) {
      if (!dfg::isSchedulable(g.node(sig).kind)) return 0;
      return s.isPlaced(sig) ? s.stepOf(sig) + g.node(sig).cycles - 1 : 0;
    };
    struct InputState {
      int pe = 0;
      int used = 0;
    };
    std::vector<InputState> inState;

    std::vector<int> support(dfg::kNumFuTypes, 0);
    auto addSupport = [&](celllib::ModuleId m, int sign) {
      for (std::size_t t = 0; t < dfg::kNumFuTypes; ++t)
        if (lib.module(m).supports(static_cast<FuType>(t))) support[t] += sign;
    };

    double v = worstContribution * static_cast<double>(order->size());
    res.liapunovTrace.push_back(v);

    bool restart = false;
    for (NodeId id : *order) {
      const dfg::Node& n = g.node(id);
      const FuType type = dfg::fuTypeOf(n.kind);
      const auto ti = static_cast<std::size_t>(type);

      inState.clear();
      for (NodeId in : n.inputs) {
        if (g.node(in).kind == dfg::OpKind::Const) continue;
        const int pe = producerEnd(in);
        const int used = maxUse[in];
        inState.push_back({pe, used == 0 ? pe : used});
      }
      auto newRegsAt = [&](int step) {
        int count = 0;
        for (const InputState& is : inState)
          if (step > is.pe && is.used <= is.pe) ++count;
        return count;
      };
      const double freshMux = lib.muxCost(n.inputs.empty() ? 0 : 1) +
                              lib.muxCost(n.inputs.size() < 2 ? 0 : 1);

      struct Candidate {
        int alu = -1;
        celllib::ModuleId module = 0;
        int step = 0;
        double f = 0.0;
      };
      std::vector<Candidate> cands;
      const auto dw = fc.depWindow(s, id);

      auto pushSteps = [&](AluState* owner, celllib::ModuleId module,
                           double fAlu) {
        const int aluIdx = owner ? owner->index : -1;
        double fMux = freshMux;
        if (owner != nullptr) {
          const auto d = alloc::appendDelta(g, owner->arrangement, id);
          fMux = lib.muxCost(static_cast<int>(d.left)) +
                 lib.muxCost(static_cast<int>(d.right)) - owner->muxCost;
        }
        // The per-step probe loop firstFit replaced.
        for (int step = dw.firstStep(tf->asap(id), tf->alap(id)); step != 0;
             step = dw.nextStep(step, tf->alap(id))) {
          if (aluIdx >= 0 && !occ.canPlace(id, aluIdx + 1, step)) continue;
          MfsaTerms terms;
          terms.fTime = C * step;
          terms.fAlu = fAlu;
          terms.fMux = fMux;
          terms.fReg = lib.regCost() * newRegsAt(step);
          cands.push_back({aluIdx, module, step, terms.weighted(opt.weights)});
          break;
        }
      };

      auto generate = [&] {
        cands.clear();
        const bool budgetOpen = support[ti] < current[ti];
        for (AluState& a : alus) {
          const celllib::Module& m = lib.module(a.module);
          if (opt.style == rtl::DesignStyle::NoSelfLoop) {
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
            pushSteps(&a, a.module, 0.0);
          } else if (budgetOpen) {
            std::set<FuType> caps = m.caps;
            caps.insert(type);
            if (auto up = cheapestCovering(lib, caps, m.stages))
              pushSteps(&a, *up, lib.module(*up).areaUm2 - m.areaUm2);
          }
        }
        if (budgetOpen)
          for (celllib::ModuleId m : lib.capableModules(type))
            pushSteps(nullptr, m, lib.module(m).areaUm2);
      };

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
      if (!chosen && (current[ti] < maxCols[ti] || !userLimited[ti])) {
        if (++restarts > maxRestarts) return res;
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
        if (current[ti] < maxCols[ti]) {
          ++current[ti];
        } else if (!userLimited[ti]) {
          ++maxCols[ti];
          ++current[ti];
        } else {
          return res;
        }
        if (++restarts > maxRestarts) return res;
        restart = true;
        break;
      }

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
        addSupport(alus[static_cast<std::size_t>(aluIdx)].module, -1);
        addSupport(chosen->module, +1);
      }
      AluState& a = alus[static_cast<std::size_t>(aluIdx)];
      a.module = chosen->module;
      a.ops.push_back(id);
      alloc::appendToArrangement(g, a.arrangement, id);
      a.muxCost = alloc::muxCostOf(lib, a.arrangement);

      occ.place(id, aluIdx + 1, chosen->step);
      s.place(id, chosen->step, aluIdx + 1);
      fc.recordPlacement(s, id, chosen->step);
      for (NodeId in : n.inputs) {
        if (g.node(in).kind == dfg::OpKind::Const) continue;
        if (chosen->step > producerEnd(in))
          maxUse[in] = std::max(maxUse[in], chosen->step);
      }
      v -= worstContribution - chosen->f;
      res.liapunovTrace.push_back(v);
    }
    if (restart) continue;

    std::vector<rtl::AluInstance> insts;
    res.stepOf.assign(g.size(), 0);
    res.aluOf.assign(g.size(), -1);
    for (const AluState& a : alus) {
      insts.push_back({a.module, a.index, a.ops});
      res.modules.push_back(a.module);
      for (NodeId op : a.ops) {
        res.stepOf[op] = s.stepOf(op);
        res.aluOf[op] = a.index;
      }
    }
    res.costTotal =
        rtl::evaluateCost(rtl::buildDatapath(g, lib, s, std::move(insts))).total;
    res.restarts = restarts;
    res.feasible = true;
    return res;
  }
}

}  // namespace ref

// ---------------------------------------------------------------------------

int criticalSteps(const dfg::Dfg& g) {
  sched::Constraints probe;
  return sched::computeTimeFrames(g, probe)->criticalSteps();
}

/// Frontier runMfsa against the reference on one graph and option set;
/// returns the frontier result.
MfsaResult expectMatchesReference(const dfg::Dfg& g,
                                  const celllib::CellLibrary& lib,
                                  MfsaOptions opt) {
  opt.frameMode = MoveFrameMode::Frontier;
  opt.traceLiapunov = true;
  const MfsaResult got = runMfsa(g, lib, opt);
  const ref::Result want = ref::runFrontierMfsa(g, lib, opt);
  EXPECT_TRUE(want.feasible);
  EXPECT_TRUE(got.feasible) << got.error;
  if (!want.feasible || !got.feasible) return got;

  EXPECT_EQ(got.restarts, want.restarts);
  EXPECT_EQ(got.cost.total, want.costTotal);
  EXPECT_EQ(got.liapunovTrace, want.liapunovTrace);
  EXPECT_EQ(got.datapath.alus.size(), want.modules.size());
  for (std::size_t i = 0;
       i < std::min(want.modules.size(), got.datapath.alus.size()); ++i)
    EXPECT_EQ(got.datapath.alus[i].module, want.modules[i]) << "ALU " << i;
  for (NodeId id : g.operations()) {
    if (got.datapath.schedule.stepOf(id) != want.stepOf[id] ||
        got.datapath.aluOf.at(id) != want.aluOf[id]) {
      ADD_FAILURE() << g.node(id).name << ": step "
                    << got.datapath.schedule.stepOf(id) << " ALU "
                    << got.datapath.aluOf.at(id) << ", reference step "
                    << want.stepOf[id] << " ALU " << want.aluOf[id];
      break;
    }
  }
  return got;
}

/// Ops starting in the same step on the same ALU: only mutually exclusive
/// ops may do that.
int sharedStarts(const dfg::Dfg& g, const MfsaResult& r) {
  std::set<std::pair<int, int>> cells;
  int shared = 0;
  for (NodeId id : g.operations())
    if (!cells.emplace(r.datapath.aluOf.at(id), r.datapath.schedule.stepOf(id))
             .second)
      ++shared;
  return shared;
}

dfg::Dfg nnGraph(workloads::DfgTopology topo, int ops, int width,
                 std::uint32_t seed) {
  workloads::RandomDfgOptions o;
  o.topology = topo;
  o.numOps = ops;
  o.layerWidth = width;
  o.numInputs = 8;
  o.seed = seed;
  return workloads::randomDfg(o);
}

TEST(MfsaFrontierOracle, NnGraphsMatchPerStepProbeLoop) {
  const celllib::CellLibrary lib = celllib::ncrLike();
  for (const auto topo :
       {workloads::DfgTopology::Conv, workloads::DfgTopology::Lstm,
        workloads::DfgTopology::Transformer}) {
    SCOPED_TRACE(static_cast<int>(topo));
    const dfg::Dfg g = nnGraph(topo, 3000, 32, 5);
    MfsaOptions opt;
    opt.constraints.timeSteps = criticalSteps(g);
    expectMatchesReference(g, lib, opt);
  }
}

TEST(MfsaFrontierOracle, ConditionalsAndMulticycleMatchPerStepProbeLoop) {
  // Ops in opposite branch arms share cells, so firstFit lands on steps the
  // hard-step index leaves soft but canPlace may still refuse.
  workloads::RandomDfgOptions o;
  o.numOps = 3000;
  o.layerWidth = 24;
  o.twoCyclePercent = 50;
  o.branchPercent = 40;
  o.seed = 9;
  const dfg::Dfg g = workloads::randomDfg(o);
  const celllib::CellLibrary lib = celllib::ncrLike();
  MfsaOptions opt;
  opt.constraints.timeSteps = criticalSteps(g) + 2;
  const MfsaResult r = expectMatchesReference(g, lib, opt);
  EXPECT_GT(sharedStarts(g, r), 0) << "no cell is shared under exclusion";
  opt.style = rtl::DesignStyle::NoSelfLoop;
  expectMatchesReference(g, lib, opt);
}

/// ncrLike with its 2-stage multiplier priced below the single-stage one,
/// so that MFSA opens pipelined ALUs.
celllib::CellLibrary cheapPipelinedMultiplierLibrary() {
  celllib::NcrLikeOptions lo;
  lo.pipelinedMultiplier = true;
  const celllib::CellLibrary base = celllib::ncrLike(lo);
  celllib::CellLibrary lib;
  lib.setName(base.name());
  std::vector<double> mux;
  for (int r = 0; r < 10; ++r) mux.push_back(base.muxCost(r));
  lib.setMuxCosts(mux);
  lib.setRegCost(base.regCost());
  for (celllib::Module m : base.modules()) {
    if (m.stages > 1) m.areaUm2 = 16000.0;
    lib.addModule(m);
  }
  return lib;
}

TEST(MfsaFrontierOracle, MultiStageLibraryMatchesPerStepProbeLoop) {
  // The 2-stage multiplier puts ops on pipelined columns, which firstFit
  // scans step by step.
  const celllib::CellLibrary lib = cheapPipelinedMultiplierLibrary();
  workloads::RandomDfgOptions o;
  o.topology = workloads::DfgTopology::Transformer;
  o.numOps = 3000;
  o.layerWidth = 32;
  o.mulPercent = 50;
  o.twoCyclePercent = 40;
  o.seed = 13;
  const dfg::Dfg g = workloads::randomDfg(o);
  MfsaOptions opt;
  opt.constraints.timeSteps = criticalSteps(g) + 1;
  const MfsaResult r = expectMatchesReference(g, lib, opt);
  const auto pipelined =
      std::count_if(r.datapath.alus.begin(), r.datapath.alus.end(),
                    [&](const rtl::AluInstance& a) {
                      return lib.module(a.module).stages > 1;
                    });
  EXPECT_GT(pipelined, 0) << "no ALU uses the 2-stage multiplier";
}

}  // namespace
}  // namespace mframe::core
