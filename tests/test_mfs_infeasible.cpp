// Infeasibility proof and one-setup step sweeps in MFS / MFSA.
//
// core::unplaceableOp refuses, in one pass and before any timeframe is
// built, a design holding an operation that no grid cell can take for any
// schedule length. Every rule is exercised in time-constrained MFS,
// resource-constrained MFS, MFSA and resource-constrained MFSA; each refusal
// must name the op, try no step count and build at most two timeframes.
//
// runMfs builds timeframes once per run and only widens ALAP per step. The
// previous sweep — computeTimeFrames, per-type bounds, priorityOrder and
// topoConsistentOrder re-derived at every cs — is kept below as the
// reference, and both must produce identical schedules on the paper suite
// and on random graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "celllib/ncr_like.h"
#include "core/frames.h"
#include "core/grid.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "dfg/parser.h"
#include "sched/priority.h"
#include "sched/timeframes.h"
#include "trace/trace.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"
#include "workloads/random_dfg.h"

namespace mframe::core {
namespace {

using dfg::FuType;
using dfg::NodeId;

// ---------------------------------------------------------------------------
// Reference: runMfs as it was before the one-setup sweep.
// ---------------------------------------------------------------------------
namespace ref {

struct TypeState {
  int maxCols = 1;
  int current = 1;
  bool userLimited = false;
};

MfsResult runMfs(const dfg::Dfg& g, const MfsOptions& opt) {
  MfsResult res;
  if (const auto& err = g.validate()) {
    res.error = "invalid DFG: " + *err;
    return res;
  }
  const auto ops = g.operations();
  if (ops.empty()) {
    res.feasible = true;
    res.schedule = sched::Schedule(g);
    return res;
  }
  const bool frontier =
      opt.frameMode == MoveFrameMode::Frontier ||
      (opt.frameMode == MoveFrameMode::Auto &&
       g.size() >= kFrontierAutoThreshold);

  const bool timeMode = opt.mode == MfsLiapunov::Mode::TimeConstrained;
  sched::Constraints c = opt.constraints;

  std::string tfError;
  sched::Constraints probe;
  probe.allowChaining = c.allowChaining;
  probe.clockNs = c.clockNs;
  auto tf0 = computeTimeFrames(g, probe, &tfError);
  if (!tf0) {
    res.error = tfError;
    return res;
  }
  int cs = timeMode ? c.timeSteps : std::max(tf0->criticalSteps(), c.timeSteps);
  if (timeMode && cs < tf0->criticalSteps()) {
    res.error = util::format("time constraint %d below critical path %d", cs,
                             tf0->criticalSteps());
    return res;
  }
  if (cs <= 0) {
    res.error = "time-constrained MFS needs constraints.timeSteps > 0";
    return res;
  }

  for (; cs <= opt.maxStepsCap; ++cs) {
    c.timeSteps = cs;
    auto tf = computeTimeFrames(g, c, &tfError);
    if (!tf) {
      res.error = tfError;
      return res;
    }

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
        types[t].current = types[t].maxCols;
      }
    }

    std::vector<NodeId> priority =
        sched::priorityOrder(g, *tf, opt.priorityRule);
    if (!opt.priorityHint.empty()) {
      std::vector<char> hinted(g.size(), 0);
      std::vector<NodeId> merged;
      for (NodeId id : opt.priorityHint) {
        if (id >= g.size() || hinted[id] ||
            !dfg::isSchedulable(g.node(id).kind))
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

    bool csInfeasible = false;
    while (!csInfeasible) {
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
      res.liapunovTrace.push_back(v);

      bool restart = false;
      for (NodeId id : *order) {
        const auto t = static_cast<std::size_t>(dfg::fuTypeOf(g.node(id).kind));
        const auto& occ = grid.table(static_cast<FuType>(t));
        const int colHi = std::min(types[t].current, types[t].maxCols);

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
          for (const auto& cell : frames.moveFrame)
            consider(cell.step, cell.column);
        } else if (timeMode) {
          const auto w = fc.depWindow(s, id);
          for (int step = w.firstStep(tf->asap(id), tf->alap(id));
               step != 0 && !found; step = w.nextStep(step, tf->alap(id)))
            for (int col = 1; col <= colHi; ++col)
              if (occ.canPlace(id, col, step)) {
                consider(step, col);
                break;
              }
        } else {
          const auto w = fc.depWindow(s, id);
          for (int col = 1; col <= colHi && !found; ++col)
            for (int step = w.firstStep(tf->asap(id), tf->alap(id));
                 step != 0; step = w.nextStep(step, tf->alap(id)))
              if (occ.canPlace(id, col, step)) {
                consider(step, col);
                break;
              }
        }

        if (!found) {
          if (types[t].current < types[t].maxCols) {
            ++types[t].current;
          } else if (timeMode && !types[t].userLimited) {
            ++types[t].maxCols;
            ++types[t].current;
          } else if (!timeMode) {
            csInfeasible = true;
            break;
          } else {
            res.error = "no feasible position";
            return res;
          }
          if (++res.restarts > opt.maxRestarts) {
            res.error = "restart budget exhausted";
            return res;
          }
          restart = true;
          break;
        }

        grid.place(id, bestCol, bestStep);
        s.place(id, bestStep, bestCol);
        fc.recordPlacement(s, id, bestStep);
        v -= worstOf[id] - bestV;
        res.liapunovTrace.push_back(v);
      }
      if (restart) continue;
      if (csInfeasible) break;

      res.feasible = true;
      res.schedule = std::move(s);
      res.steps = cs;
      res.fuCount = res.schedule.fuCount();
      return res;
    }
    if (timeMode) break;
  }
  res.error = util::format("no feasible schedule within %d steps", opt.maxStepsCap);
  return res;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Counters observed over one call.
struct Counted {
  std::uint64_t stepSweeps = 0;
  std::uint64_t builds = 0;
};

template <typename Fn>
Counted counted(Fn&& fn) {
  trace::enableCounters(true);
  trace::resetCounters();
  fn();
  Counted out{trace::counterValue(trace::Counter::MfsStepSweeps),
              trace::counterValue(trace::Counter::TimeframesBuilds)};
  trace::enableCounters(false);
  return out;
}

/// One design plus the constraints that make `culprit` unplaceable.
struct ProofCase {
  dfg::Dfg g;
  sched::Constraints c;
  std::string culprit;
  std::string bound;  ///< the broken bound the error must mention
};

/// Runs the case through every engine entry point and checks each refusal.
void expectRefusedEverywhere(const ProofCase& pc) {
  const auto bad = unplaceableOp(pc.g, pc.c);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->op, pc.g.findByName(pc.culprit));

  auto expectRefusal = [&](const std::string& engine, bool feasible,
                           const std::string& error, const Counted& n) {
    SCOPED_TRACE(engine);
    EXPECT_FALSE(feasible);
    EXPECT_NE(error.find("'" + pc.culprit + "'"), std::string::npos) << error;
    EXPECT_NE(error.find(pc.bound), std::string::npos) << error;
    EXPECT_EQ(n.stepSweeps, 0u);
    EXPECT_LE(n.builds, 2u);
  };

  for (const auto mode : {MfsLiapunov::Mode::TimeConstrained,
                          MfsLiapunov::Mode::ResourceConstrained}) {
    MfsOptions o;
    o.constraints = pc.c;
    o.mode = mode;
    MfsResult r;
    const Counted n = counted([&] { r = runMfs(pc.g, o); });
    expectRefusal(mode == MfsLiapunov::Mode::TimeConstrained ? "mfs time"
                                                             : "mfs resource",
                  r.feasible, r.error, n);
  }

  static const celllib::CellLibrary lib = celllib::ncrLike();
  MfsaOptions ao;
  ao.constraints = pc.c;
  MfsaResult ra;
  Counted n = counted([&] { ra = runMfsa(pc.g, lib, ao); });
  expectRefusal("mfsa", ra.feasible, ra.error, n);
  n = counted([&] { ra = runMfsaResourceConstrained(pc.g, lib, ao); });
  expectRefusal("mfsa resource", ra.feasible, ra.error, n);
}

/// a*b -> m1; m1+c -> s1 with the multiplier's attributes spliced in.
dfg::Dfg mulThenAdd(const std::string& mulAttrs) {
  return dfg::parse("dfg proof\ninput a\ninput b\ninput c\n"
                    "op mul m1 a b " + mulAttrs + "\n"
                    "op add s1 m1 c delay=20\n"
                    "output y s1\n");
}

// ---------------------------------------------------------------------------
// The proof rules
// ---------------------------------------------------------------------------

TEST(MfsInfeasible, ChainedOpSlowerThanTheClock) {
  ProofCase pc{mulThenAdd("delay=206.9"), {}, "m1", "196.5 ns clock"};
  pc.c.allowChaining = true;
  pc.c.clockNs = 196.5;
  pc.c.timeSteps = 4;
  expectRefusedEverywhere(pc);
}

TEST(MfsInfeasible, MulticycleOpLongerThanTheLatency) {
  ProofCase pc{mulThenAdd("cycles=3"), {}, "m1", "latency 2"};
  pc.c.latency = 2;
  pc.c.timeSteps = 6;
  expectRefusedEverywhere(pc);
}

TEST(MfsInfeasible, UsedTypeWithNoUnits) {
  ProofCase pc{mulThenAdd(""), {}, "s1", "fuLimit allows 0"};
  pc.c.fuLimit[FuType::Adder] = 0;
  pc.c.timeSteps = 4;
  expectRefusedEverywhere(pc);
}

TEST(MfsInfeasible, ReportsTheFirstUnplaceableOp) {
  const dfg::Dfg g = dfg::parse(
      "dfg two\ninput a\ninput b\n"
      "op mul m1 a b delay=300\nop mul m2 a b delay=300\n"
      "output y m1\noutput z m2\n");
  sched::Constraints c;
  c.allowChaining = true;
  const auto bad = unplaceableOp(g, c);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->op, g.findByName("m1"));
}

TEST(MfsInfeasible, ProofStaysSilentOutsideItsRules) {
  // Each rule's exemption: chaining off, a pipelined type, a limit on a
  // type no operation uses. MFS must then schedule as before.
  struct Exempt {
    std::string attrs;
    sched::Constraints c;
  };
  std::vector<Exempt> cases(3);
  cases[0].attrs = "delay=206.9";
  cases[0].c.clockNs = 196.5;  // chaining off: the op simply owns a step
  cases[1].attrs = "cycles=3";
  cases[1].c.latency = 2;
  cases[1].c.pipelinedFus.insert(FuType::Multiplier);
  cases[2].c.fuLimit[FuType::Subtractor] = 0;
  for (auto& e : cases) {
    const dfg::Dfg g = mulThenAdd(e.attrs);
    EXPECT_FALSE(unplaceableOp(g, e.c).has_value()) << e.attrs;
    MfsOptions o;
    o.constraints = e.c;
    o.mode = MfsLiapunov::Mode::ResourceConstrained;
    const MfsResult r = runMfs(g, o);
    EXPECT_TRUE(r.feasible) << e.attrs << ": " << r.error;
  }
}

TEST(MfsInfeasible, MfsaAcceptsALibraryPipelinedUnit) {
  // MFSA pipelines through multi-stage library modules, so a 3-cycle
  // multiplication at latency 2 is placeable when the library has one.
  const dfg::Dfg g = mulThenAdd("cycles=3");
  const celllib::CellLibrary lib =
      celllib::ncrLike({.pipelinedMultiplier = true});
  MfsaOptions ao;
  ao.constraints.latency = 2;
  ao.constraints.timeSteps = 6;
  const MfsaResult r = runMfsa(g, lib, ao);
  EXPECT_TRUE(r.feasible) << r.error;
}

TEST(MfsInfeasible, TimeConstraintAboveTheCapIsNamed) {
  MfsOptions o;
  o.constraints.timeSteps = 5000;
  MfsResult r;
  const Counted n = counted([&] { r = runMfs(workloads::diffeq(), o); });
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.error, "time constraint 5000 exceeds maxStepsCap 4096");
  EXPECT_EQ(n.stepSweeps, 0u);
}

// ---------------------------------------------------------------------------
// One setup per sweep
// ---------------------------------------------------------------------------

TEST(MfsSweep, WidenedFramesMatchAFreshBuild) {
  for (const auto& bc : workloads::paperSuite()) {
    sched::Constraints c = bc.constraints;
    c.timeSteps = 0;
    auto tf = sched::computeTimeFrames(bc.graph, c);
    ASSERT_TRUE(tf.has_value()) << bc.id;
    const auto order = sched::priorityOrder(bc.graph, *tf);
    for (int cs = tf->criticalSteps(); cs <= tf->criticalSteps() + 12; ++cs) {
      tf->widenTo(cs);
      c.timeSteps = cs;
      const auto fresh = sched::computeTimeFrames(bc.graph, c);
      ASSERT_TRUE(fresh.has_value());
      for (NodeId id = 0; id < bc.graph.size(); ++id) {
        EXPECT_EQ(tf->asap(id), fresh->asap(id)) << bc.id << " cs " << cs;
        EXPECT_EQ(tf->alap(id), fresh->alap(id)) << bc.id << " cs " << cs;
      }
      EXPECT_EQ(tf->asapPeak(), fresh->asapPeak()) << bc.id << " cs " << cs;
      EXPECT_EQ(tf->alapPeak(), fresh->alapPeak()) << bc.id << " cs " << cs;
      EXPECT_EQ(sched::priorityOrder(bc.graph, *fresh), order)
          << bc.id << " cs " << cs;
    }
  }
}

TEST(MfsSweep, WideningBelowTheLayoutThrows) {
  auto tf = sched::computeTimeFrames(workloads::diffeq(), {});
  ASSERT_TRUE(tf.has_value());
  tf->widenTo(tf->steps() + 2);
  EXPECT_THROW(tf->widenTo(tf->steps() - 1), std::invalid_argument);
}

/// Compares runMfs against the reference; returns the step counts swept.
std::uint64_t expectSameAsReference(const dfg::Dfg& g, const MfsOptions& o,
                                    const std::string& what) {
  const MfsResult want = ref::runMfs(g, o);
  MfsResult got;
  const Counted n = counted([&] { got = runMfs(g, o); });
  EXPECT_EQ(got.feasible, want.feasible) << what << ": " << got.error;
  EXPECT_LE(n.builds, 1u) << what;
  if (!want.feasible || !got.feasible) return n.stepSweeps;
  EXPECT_EQ(got.steps, want.steps) << what;
  EXPECT_EQ(got.restarts, want.restarts) << what;
  EXPECT_EQ(got.fuCount, want.fuCount) << what;
  EXPECT_EQ(got.liapunovTrace, want.liapunovTrace) << what;
  EXPECT_EQ(got.schedule.stepMap(), want.schedule.stepMap()) << what;
  for (NodeId id : g.operations())
    EXPECT_EQ(got.schedule.columnOf(id), want.schedule.columnOf(id))
        << what << " op " << g.node(id).name;
  return n.stepSweeps;
}

TEST(MfsSweep, PaperSuiteMatchesThePerStepReference) {
  int longSweeps = 0;  // runs that had to stretch past their first cs
  for (const auto& bc : workloads::paperSuite())
    for (const int limit : {1, 2})
      for (const auto frame : {MoveFrameMode::Exhaustive,
                               MoveFrameMode::Frontier}) {
        MfsOptions o;
        o.constraints = bc.constraints;
        o.mode = MfsLiapunov::Mode::ResourceConstrained;
        o.frameMode = frame;
        for (NodeId id : bc.graph.operations())
          o.constraints.fuLimit[dfg::fuTypeOf(bc.graph.node(id).kind)] = limit;
        const auto sweeps = expectSameAsReference(
            bc.graph, o,
            util::format("%s limit %d frame %d", bc.id.c_str(), limit,
                         static_cast<int>(frame)));
        if (sweeps > 1) ++longSweeps;
      }
  EXPECT_GE(longSweeps, 12);  // the oracle must compare widened frames
}

TEST(MfsSweep, RandomGraphsMatchThePerStepReference) {
  int longSweeps = 0;
  // Chaining, unit limit and frame mode vary independently: every one of
  // the eight combinations runs on three seeds.
  for (std::uint32_t seed = 1; seed <= 24; ++seed) {
    const int limit = 1 + static_cast<int>(seed / 2 % 2);
    const auto frame =
        seed / 4 % 2 ? MoveFrameMode::Frontier : MoveFrameMode::Exhaustive;
    workloads::RandomDfgOptions ro;
    ro.seed = seed;
    ro.numOps = 12 + static_cast<int>(seed % 5) * 8;
    ro.layerWidth = 8;  // wide layers, so the unit limits stretch cs
    ro.mulPercent = 30;
    ro.twoCyclePercent = seed % 3 == 0 ? 40 : 0;
    ro.branchPercent = seed % 4 == 0 ? 25 : 0;
    ro.randomDelays = seed % 2 == 0;
    const dfg::Dfg g = workloads::randomDfg(ro);

    MfsOptions o;
    o.mode = MfsLiapunov::Mode::ResourceConstrained;
    o.constraints.allowChaining = ro.randomDelays;
    for (NodeId id : g.operations())
      o.constraints.fuLimit[dfg::fuTypeOf(g.node(id).kind)] = limit;
    o.frameMode = frame;
    if (seed % 5 == 0) {
      // The tune loop's criticality hint: reversed id order.
      const auto opsSpan = g.operations();
      o.priorityHint.assign(opsSpan.rbegin(), opsSpan.rend());
    }
    if (expectSameAsReference(g, o, util::format("seed %u", seed)) > 1)
      ++longSweeps;

    // Time mode reads the same widened frames at its fixed cs.
    o.mode = MfsLiapunov::Mode::TimeConstrained;
    o.constraints.fuLimit.clear();
    const auto tf = sched::computeTimeFrames(g, o.constraints);
    ASSERT_TRUE(tf.has_value());
    o.constraints.timeSteps = tf->criticalSteps() + static_cast<int>(seed % 4);
    expectSameAsReference(g, o, util::format("time seed %u", seed));
  }
  EXPECT_GE(longSweeps, 12);
}

}  // namespace
}  // namespace mframe::core
