#include "workloads/benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sched/timeframes.h"
#include "workloads/random_dfg.h"

namespace mframe::workloads {
namespace {

using dfg::FuType;
using dfg::OpKind;

std::map<OpKind, int> opMix(const dfg::Dfg& g) {
  std::map<OpKind, int> m;
  for (dfg::NodeId id : g.operations()) ++m[g.node(id).kind];
  return m;
}

int criticalPath(const dfg::Dfg& g) {
  sched::Constraints c;
  return sched::computeTimeFrames(g, c)->criticalSteps();
}

TEST(Workloads, AllBenchmarksValidate) {
  for (const auto& bc : paperSuite())
    EXPECT_FALSE(bc.graph.validate().has_value()) << bc.id;
}

TEST(Workloads, TsengMixAndCriticalPath) {
  const dfg::Dfg g = tseng();
  const auto m = opMix(g);
  EXPECT_EQ(m.at(OpKind::Add), 3);
  EXPECT_EQ(m.at(OpKind::Mul), 1);
  EXPECT_EQ(m.at(OpKind::Sub), 1);
  EXPECT_EQ(m.at(OpKind::Eq), 1);
  EXPECT_EQ(criticalPath(g), 4);
}

TEST(Workloads, ChainedNeedsChainingToHitFourSteps) {
  const dfg::Dfg g = chained();
  EXPECT_EQ(criticalPath(g), 6);  // without chaining
  sched::Constraints c;
  c.allowChaining = true;
  c.clockNs = 100.0;
  EXPECT_LE(sched::computeTimeFrames(g, c)->criticalSteps(), 4);
}

TEST(Workloads, DiffeqIsTheClassicElevenOpGraph) {
  const dfg::Dfg g = diffeq();
  const auto m = opMix(g);
  EXPECT_EQ(m.at(OpKind::Mul), 6);
  EXPECT_EQ(m.at(OpKind::Add), 2);
  EXPECT_EQ(m.at(OpKind::Sub), 2);
  EXPECT_EQ(m.at(OpKind::Lt), 1);
  EXPECT_EQ(g.operations().size(), 11u);
  EXPECT_EQ(criticalPath(g), 4);
}

TEST(Workloads, DiffeqTwoCycleVariantStretches) {
  // Critical chain m1/m2 -> m4 -> s1 -> u1: 2 + 2 + 1 + 1 = 6 steps.
  EXPECT_EQ(criticalPath(diffeq(true)), 6);
}

TEST(Workloads, Fir8MixAndDepth) {
  const dfg::Dfg g = fir8();
  const auto m = opMix(g);
  EXPECT_EQ(m.at(OpKind::Mul), 8);
  EXPECT_EQ(m.at(OpKind::Add), 7);
  EXPECT_EQ(criticalPath(g), 4);  // mul + 3 tree levels
}

TEST(Workloads, ArLatticeClassicMix) {
  const dfg::Dfg g = arLattice();
  const auto m = opMix(g);
  EXPECT_EQ(m.at(OpKind::Mul), 16);
  EXPECT_EQ(m.at(OpKind::Add), 12);
  for (dfg::NodeId id : g.operations()) {
    if (g.node(id).kind == OpKind::Mul) {
      EXPECT_EQ(g.node(id).cycles, 2);
    }
  }
  EXPECT_EQ(criticalPath(g), 13);
}

TEST(Workloads, EwfLikeClassicMixAndSeventeenSteps) {
  const dfg::Dfg g = ewfLike();
  const auto m = opMix(g);
  EXPECT_EQ(m.at(OpKind::Add), 26);
  EXPECT_EQ(m.at(OpKind::Mul), 8);
  EXPECT_EQ(g.operations().size(), 34u);
  EXPECT_EQ(criticalPath(g), 17);  // the classic EWF sweep starts here
}

TEST(Workloads, PaperSuiteHasSixCasesWithSweeps) {
  const auto suite = paperSuite();
  ASSERT_EQ(suite.size(), 6u);
  for (const auto& bc : suite) {
    EXPECT_FALSE(bc.timeSweep.empty()) << bc.id;
    // Sweeps are feasible: first point >= critical path under the case's
    // constraints.
    sched::Constraints c = bc.constraints;
    c.timeSteps = 0;
    const auto tf = sched::computeTimeFrames(bc.graph, c);
    ASSERT_TRUE(tf.has_value()) << bc.id;
    EXPECT_GE(bc.timeSweep.front(), tf->criticalSteps()) << bc.id;
  }
}

TEST(Workloads, FdctLikeMixAndDepth) {
  const dfg::Dfg g = fdctLike();
  const auto m = opMix(g);
  EXPECT_EQ(m.at(OpKind::Mul), 16);
  EXPECT_EQ(m.at(OpKind::Add) + m.at(OpKind::Sub), 28);
  EXPECT_EQ(criticalPath(g), 6);
  EXPECT_EQ(g.outputs().size(), 8u);
}

TEST(Workloads, IirBiquadsMixAndSerialDepth) {
  const dfg::Dfg g = iirBiquads();
  const auto m = opMix(g);
  EXPECT_EQ(m.at(OpKind::Mul), 10);
  EXPECT_EQ(m.at(OpKind::Add) + m.at(OpKind::Sub), 8);
  // Section 1: fb -> t -> w -> ff0 -> p -> y (6 steps); section 2 chains
  // t..y behind section 1's output (5 more steps).
  EXPECT_EQ(criticalPath(g), 11);
}

TEST(RandomDfg, DeterministicPerSeed) {
  RandomDfgOptions o;
  o.seed = 7;
  o.numOps = 25;
  const dfg::Dfg a = randomDfg(o);
  const dfg::Dfg b = randomDfg(o);
  ASSERT_EQ(a.size(), b.size());
  for (dfg::NodeId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.node(i).kind, b.node(i).kind);
    EXPECT_TRUE(std::ranges::equal(a.node(i).inputs, b.node(i).inputs));
  }
}

TEST(RandomDfg, DifferentSeedsDiffer) {
  RandomDfgOptions a;
  a.seed = 1;
  a.numOps = 25;
  RandomDfgOptions b = a;
  b.seed = 2;
  const dfg::Dfg ga = randomDfg(a);
  const dfg::Dfg gb = randomDfg(b);
  bool differ = ga.size() != gb.size();
  for (dfg::NodeId i = 0; !differ && i < ga.size(); ++i)
    differ = ga.node(i).kind != gb.node(i).kind ||
             !std::ranges::equal(ga.node(i).inputs, gb.node(i).inputs);
  EXPECT_TRUE(differ);
}

TEST(RandomDfg, RequestedOpCountAndValidity) {
  for (std::uint32_t seed : {1u, 5u, 9u}) {
    RandomDfgOptions o;
    o.seed = seed;
    o.numOps = 40;
    o.twoCyclePercent = 40;
    o.branchPercent = 30;
    const dfg::Dfg g = randomDfg(o);
    EXPECT_FALSE(g.validate().has_value());
    EXPECT_EQ(g.operations().size(), 40u);
  }
}

TEST(RandomDfg, BranchPercentProducesExclusivePairs) {
  RandomDfgOptions o;
  o.seed = 3;
  o.numOps = 60;
  o.branchPercent = 60;
  const dfg::Dfg g = randomDfg(o);
  bool anyExclusive = false;
  const auto ops = g.operations();
  for (std::size_t i = 0; i < ops.size() && !anyExclusive; ++i)
    for (std::size_t j = i + 1; j < ops.size(); ++j)
      if (g.mutuallyExclusive(ops[i], ops[j])) {
        anyExclusive = true;
        break;
      }
  EXPECT_TRUE(anyExclusive);
}

}  // namespace
}  // namespace mframe::workloads
