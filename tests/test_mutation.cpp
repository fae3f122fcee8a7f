// Verifier mutation tests: corrupt known-good schedules and datapaths in
// every way the verifiers claim to catch, and assert each corruption is in
// fact flagged. This guards the guards — a verifier that silently accepts
// broken results would defeat the whole test strategy.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "helpers.h"
#include "rtl/verify.h"
#include "sched/verify.h"
#include "workloads/benchmarks.h"
#include "workloads/random_dfg.h"

namespace mframe {
namespace {

using dfg::NodeId;

struct GoodSchedule {
  dfg::Dfg graph;
  sched::Constraints constraints;
  sched::Schedule schedule;
};

GoodSchedule makeSchedule(const workloads::RandomDfgOptions& o, int slack) {
  GoodSchedule gs{workloads::randomDfg(o), {}, {}};
  sched::Constraints probe;
  const auto tf = computeTimeFrames(gs.graph, probe);
  gs.constraints.timeSteps = tf->criticalSteps() + slack;
  core::MfsOptions mo;
  mo.constraints = gs.constraints;
  const auto r = core::runMfs(gs.graph, mo);
  EXPECT_TRUE(r.feasible);
  gs.schedule = r.schedule;
  return gs;
}

GoodSchedule makeGood(std::uint32_t seed) {
  workloads::RandomDfgOptions o;
  o.seed = seed;
  o.numOps = 20;
  o.twoCyclePercent = 25;
  return makeSchedule(o, 2);
}

/// Four conv layers of eight independent ops, scheduled at the critical
/// step count: no op can be deferred, so every busy FU type needs several
/// instances (multi-instance columns). The 20-op critical+2 graphs above
/// rarely use a second instance.
workloads::RandomDfgOptions wideOptions(std::uint32_t seed) {
  workloads::RandomDfgOptions o;
  o.seed = seed;
  o.topology = workloads::DfgTopology::Conv;
  o.numOps = 32;
  o.layerWidth = 8;
  o.twoCyclePercent = 25;
  return o;
}

GoodSchedule makeWide(std::uint32_t seed) {
  return makeSchedule(wideOptions(seed), 0);
}

bool mentions(const std::vector<std::string>& v, const std::string& what) {
  return std::any_of(v.begin(), v.end(), [&](const std::string& m) {
    return m.find(what) != std::string::npos;
  });
}

class MutationSeeds : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MutationSeeds, StepCorruptionIsCaught) {
  GoodSchedule gs = makeGood(GetParam());
  ASSERT_TRUE(sched::verifySchedule(gs.schedule, gs.constraints).empty());
  std::mt19937 rng(GetParam());
  const auto ops = gs.schedule.graph().operations();

  int caught = 0, mutations = 0;
  for (int trial = 0; trial < 20; ++trial) {
    sched::Schedule s = gs.schedule;
    const NodeId victim = ops[rng() % ops.size()];
    const int oldStep = s.stepOf(victim);
    const int newStep =
        1 + static_cast<int>(rng() % static_cast<unsigned>(s.numSteps()));
    if (newStep == oldStep) continue;
    s.place(victim, newStep, s.columnOf(victim));
    ++mutations;
    if (!sched::verifySchedule(s, gs.constraints).empty()) ++caught;
  }
  // Moving an op to a random different step almost always breaks precedence
  // or occupancy; a verifier catching none of them is broken.
  ASSERT_GT(mutations, 0);
  EXPECT_GT(caught, 0);
}

/// Two same-type ops that share a step on different columns, if any.
std::optional<std::pair<NodeId, NodeId>> sameStepPair(const GoodSchedule& gs) {
  const dfg::Dfg& g = gs.schedule.graph();
  const auto ops = g.operations();
  for (NodeId a : ops)
    for (NodeId b : ops)
      if (a != b &&
          dfg::fuTypeOf(g.node(a).kind) == dfg::fuTypeOf(g.node(b).kind) &&
          gs.schedule.stepOf(a) == gs.schedule.stepOf(b) &&
          gs.schedule.columnOf(a) != gs.schedule.columnOf(b))
        return std::pair{a, b};
  return std::nullopt;
}

TEST_P(MutationSeeds, ColumnCollisionIsCaught) {
  // The 20-op schedule rarely has such a pair; the wide one always does, so
  // the guard is never vacuous.
  int tried = 0;
  for (const GoodSchedule& gs :
       {makeGood(GetParam() + 50), makeWide(GetParam() + 50)}) {
    ASSERT_TRUE(sched::verifySchedule(gs.schedule, gs.constraints).empty());
    const auto pair = sameStepPair(gs);
    if (!pair) continue;
    // Force the two same-type, overlapping ops onto one column.
    sched::Schedule s = gs.schedule;
    s.place(pair->second, s.stepOf(pair->second), s.columnOf(pair->first));
    EXPECT_TRUE(mentions(sched::verifySchedule(s, gs.constraints),
                         "occupancy conflict"));
    ++tried;
  }
  EXPECT_GT(tried, 0) << "no same-type same-step pair in this seed";
}

TEST_P(MutationSeeds, DroppedOpIsCaught) {
  GoodSchedule gs = makeGood(GetParam() + 100);
  std::mt19937 rng(GetParam());
  const auto ops = gs.schedule.graph().operations();
  sched::Schedule s = gs.schedule;
  s.unplace(ops[rng() % ops.size()]);
  const auto v = sched::verifySchedule(s, gs.constraints);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("not scheduled"), std::string::npos);
}

TEST_P(MutationSeeds, TightenedResourceLimitIsCaught) {
  int tried = 0;
  for (const GoodSchedule& gs :
       {makeGood(GetParam() + 150), makeWide(GetParam() + 150)}) {
    for (const auto& [type, used] : gs.schedule.fuCount()) {
      if (used < 2) continue;
      sched::Constraints c = gs.constraints;
      c.fuLimit[type] = used - 1;
      EXPECT_TRUE(mentions(sched::verifySchedule(gs.schedule, c),
                           "resource limit exceeded"));
      ++tried;
      break;
    }
  }
  EXPECT_GT(tried, 0) << "schedule uses single instances only";
}

TEST_P(MutationSeeds, PipelinedFoldedCollisionIsCaught) {
  // Functional pipelining at L = 2 with a structurally pipelined multiplier:
  // a multiply moved into another's column at a start step L later starts
  // in the same folded slot, so the two collide (SCH007).
  workloads::RandomDfgOptions o = wideOptions(GetParam() + 300);
  o.mulPercent = 60;
  o.twoCyclePercent = 50;
  const dfg::Dfg g = workloads::randomDfg(o);
  sched::Constraints c;
  c.latency = 2;
  c.pipelinedFus.insert(dfg::FuType::Multiplier);
  sched::Constraints probe;
  c.timeSteps = computeTimeFrames(g, probe)->criticalSteps() + 2;
  core::MfsOptions mo;
  mo.constraints = c;
  const auto r = core::runMfs(g, mo);
  ASSERT_TRUE(r.feasible) << r.error;
  ASSERT_TRUE(sched::verifySchedule(r.schedule, c).empty());

  const auto ops = g.operations();
  for (NodeId a : ops) {
    if (dfg::fuTypeOf(g.node(a).kind) != dfg::FuType::Multiplier) continue;
    for (NodeId b : ops) {
      if (b == a ||
          dfg::fuTypeOf(g.node(b).kind) != dfg::FuType::Multiplier)
        continue;
      for (const int step : {r.schedule.stepOf(a) + c.latency,
                             r.schedule.stepOf(a) - c.latency}) {
        if (step < 1 || step + g.node(b).cycles - 1 > c.timeSteps) continue;
        sched::Schedule s = r.schedule;
        s.place(b, step, s.columnOf(a));
        EXPECT_TRUE(mentions(sched::verifySchedule(s, c), "occupancy conflict"));
        return;
      }
    }
  }
  ADD_FAILURE() << "no pair of multiplies to fold together in this seed";
}

TEST_P(MutationSeeds, DatapathRebindIsCaught) {
  workloads::RandomDfgOptions o;
  o.seed = GetParam() + 200;
  o.numOps = 18;
  const dfg::Dfg g = workloads::randomDfg(o);
  static const celllib::CellLibrary lib = celllib::ncrLike();
  sched::Constraints probe;
  const auto tf = computeTimeFrames(g, probe);
  core::MfsaOptions ao;
  ao.constraints.timeSteps = tf->criticalSteps() + 2;
  const auto r = core::runMfsa(g, lib, ao);
  ASSERT_TRUE(r.feasible);
  ASSERT_TRUE(rtl::verifyDatapath(r.datapath, ao.constraints,
                                  rtl::DesignStyle::Unrestricted)
                  .empty());

  // Steal an op from one ALU into another that cannot perform it.
  rtl::Datapath broken = r.datapath;
  for (auto& victim : broken.alus) {
    for (NodeId op : victim.ops) {
      const dfg::FuType t = dfg::fuTypeOf(g.node(op).kind);
      for (auto& thief : broken.alus) {
        if (thief.index == victim.index) continue;
        if (broken.lib->module(thief.module).supports(t)) continue;
        victim.ops.erase(
            std::remove(victim.ops.begin(), victim.ops.end(), op),
            victim.ops.end());
        thief.ops.push_back(op);
        broken.aluOf[op] = thief.index;
        EXPECT_FALSE(rtl::verifyDatapath(broken, ao.constraints,
                                         rtl::DesignStyle::Unrestricted)
                         .empty());
        return;
      }
    }
  }
  GTEST_SKIP() << "every ALU supports every used type in this seed";
}

TEST_P(MutationSeeds, AluCollisionIsCaught) {
  // Two operations sharing an ALU are forced into one step (RTL005).
  const dfg::Dfg g = workloads::randomDfg(wideOptions(GetParam() + 250));
  static const celllib::CellLibrary lib = celllib::ncrLike();
  sched::Constraints probe;
  core::MfsaOptions ao;
  ao.constraints.timeSteps = computeTimeFrames(g, probe)->criticalSteps() + 2;
  const auto r = core::runMfsa(g, lib, ao);
  ASSERT_TRUE(r.feasible) << r.error;
  ASSERT_TRUE(rtl::verifyDatapath(r.datapath, ao.constraints,
                                  rtl::DesignStyle::Unrestricted)
                  .empty());
  for (const rtl::AluInstance& a : r.datapath.alus) {
    if (a.ops.size() < 2) continue;
    rtl::Datapath broken = r.datapath;
    const NodeId x = a.ops[0];
    const NodeId y = a.ops[1];
    broken.schedule.place(y, broken.schedule.stepOf(x),
                          broken.schedule.columnOf(y));
    EXPECT_TRUE(mentions(rtl::verifyDatapath(broken, ao.constraints,
                                             rtl::DesignStyle::Unrestricted),
                         "concurrently"));
    return;
  }
  ADD_FAILURE() << "every ALU executes a single operation in this seed";
}

TEST_P(MutationSeeds, RegisterOverlapIsCaught) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions ao;
  ao.constraints.timeSteps = 4;
  const auto r = core::runMfsa(workloads::diffeq(), lib, ao);
  ASSERT_TRUE(r.feasible);
  rtl::Datapath broken = r.datapath;
  if (broken.regs.count() < 2) GTEST_SKIP();
  // Merge two registers: the combined lifetimes overlap somewhere.
  auto& regs = broken.regs.registers;
  for (std::size_t i : regs[1]) regs[0].push_back(i);
  regs.erase(regs.begin() + 1);
  const auto v = rtl::verifyDatapath(broken, ao.constraints,
                                     rtl::DesignStyle::Unrestricted);
  bool overlapFlagged = false;
  for (const auto& msg : v)
    if (msg.find("overlapping") != std::string::npos) overlapFlagged = true;
  EXPECT_TRUE(overlapFlagged);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationSeeds,
                         ::testing::Range<std::uint32_t>(1, 9));

}  // namespace
}  // namespace mframe
