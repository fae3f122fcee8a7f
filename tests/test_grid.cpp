#include "core/grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dfg/builder.h"
#include "helpers.h"
#include "trace/trace.h"

namespace mframe::core {
namespace {

using dfg::NodeId;

TEST(ColumnOccupancy, PlaceBlocksCellAndRemoveFrees) {
  const dfg::Dfg g = test::addParallel(2);
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  const auto ops = g.operations();
  EXPECT_TRUE(occ.canPlace(ops[0], 1, 1));
  occ.place(ops[0], 1, 1);
  EXPECT_FALSE(occ.canPlace(ops[1], 1, 1));
  EXPECT_TRUE(occ.canPlace(ops[1], 2, 1));
  EXPECT_TRUE(occ.canPlace(ops[1], 1, 2));
  occ.remove(ops[0]);
  EXPECT_TRUE(occ.canPlace(ops[1], 1, 1));
}

TEST(ColumnOccupancy, MulticycleHoldsConsecutiveSteps) {
  dfg::Builder b("mc");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.mul(x, y, "m1", 3);
  b.mul(x, y, "m2", 1);
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  occ.place(g.findByName("m1"), 1, 2);  // occupies 2,3,4
  for (int s : {2, 3, 4}) EXPECT_FALSE(occ.canPlace(g.findByName("m2"), 1, s));
  EXPECT_TRUE(occ.canPlace(g.findByName("m2"), 1, 1));
  EXPECT_TRUE(occ.canPlace(g.findByName("m2"), 1, 5));
}

TEST(ColumnOccupancy, PipelinedColumnConflictsOnlyOnStartStep) {
  dfg::Builder b("pipe");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.mul(x, y, "m1", 2);
  b.mul(x, y, "m2", 2);
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  occ.setPipelined(1, true);
  occ.place(g.findByName("m1"), 1, 1);
  EXPECT_FALSE(occ.canPlace(g.findByName("m2"), 1, 1));
  EXPECT_TRUE(occ.canPlace(g.findByName("m2"), 1, 2));
}

TEST(ColumnOccupancy, LatencyFoldingAliasesResidues) {
  const dfg::Dfg g = test::addParallel(3);
  sched::Constraints c;
  c.latency = 3;
  ColumnOccupancy occ(g, c);
  const auto ops = g.operations();
  occ.place(ops[0], 1, 1);
  EXPECT_FALSE(occ.canPlace(ops[1], 1, 4));  // 4 == 1 (mod 3)
  EXPECT_TRUE(occ.canPlace(ops[1], 1, 2));
  EXPECT_TRUE(occ.canPlace(ops[1], 1, 3));
}

TEST(ColumnOccupancy, MulticycleLongerThanLatencyRejected) {
  dfg::Builder b("mc");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.mul(x, y, "m", 3);
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  c.latency = 2;  // a 3-cycle op would overlap its own next initiation
  ColumnOccupancy occ(g, c);
  EXPECT_FALSE(occ.canPlace(g.findByName("m"), 1, 1));
}

TEST(ColumnOccupancy, MutuallyExclusiveShareCells) {
  const dfg::Dfg g = test::branchy();
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  occ.place(g.findByName("t1"), 1, 1);
  EXPECT_TRUE(occ.canPlace(g.findByName("e1"), 1, 1));
  occ.place(g.findByName("e1"), 1, 1);
  EXPECT_EQ(occ.at(1, 1).size(), 2u);
}

TEST(ColumnOccupancy, MaxColumnUsedTracksHighest) {
  const dfg::Dfg g = test::addParallel(3);
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  EXPECT_EQ(occ.maxColumnUsed(), 0);
  const auto ops = g.operations();
  occ.place(ops[0], 1, 1);
  occ.place(ops[1], 3, 1);
  EXPECT_EQ(occ.maxColumnUsed(), 3);
  occ.remove(ops[1]);
  EXPECT_EQ(occ.maxColumnUsed(), 1);
}

TEST(ColumnOccupancy, ClearResetsEverything) {
  const dfg::Dfg g = test::addParallel(2);
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  const auto ops = g.operations();
  occ.place(ops[0], 1, 1);
  occ.clear();
  EXPECT_FALSE(occ.isPlaced(ops[0]));
  EXPECT_TRUE(occ.canPlace(ops[1], 1, 1));
}

TEST(Grid, RoutesByFuType) {
  dfg::Builder b("mix");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto a1 = b.add(x, y, "a1");
  const auto a2 = b.add(y, x, "a2");
  const auto s1 = b.sub(x, y, "s1");
  b.output(a1, "o1");
  b.output(a2, "o2");
  b.output(s1, "o3");
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  Grid grid(g, c);
  grid.place(a1, 1, 1);
  // Different FU type: the subtractor table is independent of the adders'.
  EXPECT_TRUE(grid.canPlace(s1, 1, 1));
  grid.place(s1, 1, 1);
  // Same FU type: the cell is taken.
  EXPECT_FALSE(grid.canPlace(a2, 1, 1));
  EXPECT_TRUE(grid.canPlace(a2, 2, 1));
}

TEST(Grid, PipelinedTypesFlaggedFromConstraints) {
  dfg::Builder b("pipe");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.mul(x, y, "m1", 2);
  b.mul(x, y, "m2", 2);
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  c.pipelinedFus.insert(dfg::FuType::Multiplier);
  Grid grid(g, c);
  grid.place(g.findByName("m1"), 1, 1);
  EXPECT_TRUE(grid.canPlace(g.findByName("m2"), 1, 2));  // overlapping stages
}

// ---------------------------------------------------------------------------
// firstFit: every answer is checked against a brute-force canPlace loop over
// all windows [lo, hi] of the first `maxStep` steps.

int bruteFirstFit(const ColumnOccupancy& occ, NodeId n, int col, int lo,
                  int hi) {
  for (int s = std::max(lo, 1); s <= hi; ++s)
    if (occ.canPlace(n, col, s)) return s;
  return 0;
}

void expectFirstFitMatchesBrute(const ColumnOccupancy& occ, NodeId n, int col,
                                int maxStep) {
  for (int lo = 0; lo <= maxStep; ++lo)
    for (int hi = lo - 1; hi <= maxStep; ++hi)
      ASSERT_EQ(occ.firstFit(n, col, lo, hi), bruteFirstFit(occ, n, col, lo, hi))
          << "op " << n << " col " << col << " window [" << lo << ", " << hi
          << "]";
}

/// `n` independent multiplications named m0.. taking `cycles` cycles each,
/// and as many single-cycle ones named s0...
dfg::Dfg independentMuls(int n, int cycles) {
  dfg::Builder b("muls");
  const auto x = b.input("x");
  const auto y = b.input("y");
  for (int i = 0; i < n; ++i) {
    b.output(b.mul(x, y, "m" + std::to_string(i), cycles), "om" + std::to_string(i));
    b.output(b.mul(x, y, "s" + std::to_string(i), 1), "os" + std::to_string(i));
  }
  return std::move(b).build();
}

/// `n` ops in each arm of conditional c1, plus `n` unconditional ops.
dfg::Dfg armsAndTop(int n) {
  dfg::Builder b("arms");
  const auto x = b.input("x");
  const auto y = b.input("y");
  for (const char* arm : {"t", "e"}) {
    b.pushBranch("c1", arm);
    for (int i = 0; i < n; ++i)
      b.output(b.add(x, y, std::string(arm) + std::to_string(i)),
               std::string("o") + arm + std::to_string(i));
    b.popBranch();
  }
  for (int i = 0; i < n; ++i)
    b.output(b.add(x, y, "u" + std::to_string(i)), "ou" + std::to_string(i));
  return std::move(b).build();
}

NodeId named(const dfg::Dfg& g, const std::string& name) {
  return g.findByName(name);
}

TEST(ColumnOccupancyFirstFit, PlainOpsMatchBruteForce) {
  const dfg::Dfg g = independentMuls(160, 1);
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  // Steps 1..150 of column 1 held, except 5, 64, 65 and 129.
  int k = 0;
  for (int step = 1; step <= 150; ++step)
    if (step != 5 && step != 64 && step != 65 && step != 129)
      occ.place(named(g, "m" + std::to_string(k++)), 1, step);
  const NodeId probe = named(g, "s0");
  expectFirstFitMatchesBrute(occ, probe, 1, 160);
  expectFirstFitMatchesBrute(occ, probe, 2, 20);  // an empty column
  EXPECT_EQ(occ.firstFit(probe, 1, 6, 200), 64);
  EXPECT_EQ(occ.firstFit(probe, 1, 66, 200), 129);
  EXPECT_EQ(occ.firstFit(probe, 1, 130, 200), 151);
}

TEST(ColumnOccupancyFirstFit, MulticycleOpsMatchBruteForce) {
  const dfg::Dfg g = independentMuls(40, 3);
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  // 3-cycle ops at 1, 6, 10, 62 and 66 hold 1-3, 6-8, 10-12, 62-64, 66-68;
  // single-cycle ops hold 4 and 70.
  int k = 0;
  for (int step : {1, 6, 10, 62, 66})
    occ.place(named(g, "m" + std::to_string(k++)), 1, step);
  occ.place(named(g, "s0"), 1, 4);
  occ.place(named(g, "s1"), 1, 70);
  expectFirstFitMatchesBrute(occ, named(g, "m39"), 1, 80);
  expectFirstFitMatchesBrute(occ, named(g, "s39"), 1, 80);
  EXPECT_EQ(occ.firstFit(named(g, "m39"), 1, 1, 80), 13);
  EXPECT_EQ(occ.firstFit(named(g, "m39"), 1, 60, 80), 71);
  // An op resident on the column: canPlace ignores its own cells.
  expectFirstFitMatchesBrute(occ, named(g, "m3"), 1, 80);
}

TEST(ColumnOccupancyFirstFit, CellHeldOnlyByExclusiveOpIsNotSkipped) {
  const dfg::Dfg g = armsAndTop(80);
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  for (int i = 0; i < 70; ++i) occ.place(named(g, "t" + std::to_string(i)), 1, i + 1);
  // The else arm shares every then-arm cell; an unconditional op shares none.
  EXPECT_EQ(occ.firstFit(named(g, "e0"), 1, 1, 100), 1);
  EXPECT_EQ(occ.firstFit(named(g, "u0"), 1, 1, 100), 71);
  // A step held by an unconditional op is refused to both arms.
  occ.place(named(g, "u1"), 1, 71);
  occ.place(named(g, "u2"), 1, 72);
  occ.place(named(g, "e1"), 1, 1);
  for (const char* op : {"t79", "e79", "u79"})
    expectFirstFitMatchesBrute(occ, named(g, op), 1, 100);
  EXPECT_EQ(occ.firstFit(named(g, "t79"), 1, 60, 100), 73);
  EXPECT_EQ(occ.firstFit(named(g, "e79"), 1, 1, 100), 2);
}

TEST(ColumnOccupancyFirstFit, PipelinedAndFoldedColumnsMatchBruteForce) {
  const dfg::Dfg g = independentMuls(40, 2);
  {
    sched::Constraints c;
    ColumnOccupancy occ(g, c);
    occ.setPipelined(1, true);
    for (int i = 0; i < 30; ++i)
      occ.place(named(g, "m" + std::to_string(i)), 1, 2 * i + 1);
    expectFirstFitMatchesBrute(occ, named(g, "m39"), 1, 70);
    expectFirstFitMatchesBrute(occ, named(g, "s39"), 1, 70);
    EXPECT_EQ(occ.firstFit(named(g, "m39"), 1, 1, 70), 2);
  }
  {
    sched::Constraints c;
    c.latency = 5;  // steps fold mod 5
    ColumnOccupancy occ(g, c);
    occ.place(named(g, "s0"), 1, 1);
    occ.place(named(g, "m0"), 1, 3);  // folded residues 2 and 3
    expectFirstFitMatchesBrute(occ, named(g, "m39"), 1, 70);
    expectFirstFitMatchesBrute(occ, named(g, "s39"), 1, 70);
    EXPECT_EQ(occ.firstFit(named(g, "s39"), 1, 6, 70), 7);
    EXPECT_EQ(occ.firstFit(named(g, "s39"), 1, 8, 70), 10);
  }
}

TEST(ColumnOccupancyFirstFit, SkipsAWordOfHardStepsInOneProbe) {
  const dfg::Dfg g = independentMuls(200, 1);
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  for (int i = 0; i < 191; ++i) occ.place(named(g, "m" + std::to_string(i)), 1, i + 1);
  const bool wasOn = trace::countersEnabled();
  trace::enableCounters(true);
  const auto before = trace::counterValue(trace::Counter::OccupancyProbes);
  // Steps 1..191 are held across three 64-bit words; 192 is free.
  EXPECT_EQ(occ.firstFit(named(g, "s0"), 1, 1, 300), 192);
  EXPECT_EQ(occ.firstFit(named(g, "s0"), 1, 1, 191), 0);
  EXPECT_EQ(occ.firstFit(named(g, "s0"), 1, 63, 64), 0);
  EXPECT_EQ(trace::counterValue(trace::Counter::OccupancyProbes) - before, 1u);
  trace::enableCounters(wasOn);
  expectFirstFitMatchesBrute(occ, named(g, "s0"), 1, 200);
}

TEST(ColumnOccupancyFirstFit, RemoveAndClearKeepTheIndexExact) {
  const dfg::Dfg g = armsAndTop(80);
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  for (int i = 0; i < 70; ++i) occ.place(named(g, "u" + std::to_string(i)), 1, i + 1);
  const NodeId probe = named(g, "u79");
  occ.remove(named(g, "u63"));  // frees step 64, across a word boundary
  EXPECT_EQ(occ.firstFit(probe, 1, 1, 100), 64);
  expectFirstFitMatchesBrute(occ, probe, 1, 100);

  // Step 10 held by an unconditional op and a then-arm op: removing the
  // unconditional one leaves a cell the else arm can share.
  occ.place(named(g, "t0"), 1, 10);
  EXPECT_EQ(occ.firstFit(named(g, "e0"), 1, 1, 100), 64);
  occ.remove(named(g, "u9"));
  EXPECT_EQ(occ.firstFit(named(g, "e0"), 1, 1, 100), 10);
  EXPECT_EQ(occ.firstFit(probe, 1, 1, 100), 64);
  for (const char* op : {"t79", "e79", "u79"})
    expectFirstFitMatchesBrute(occ, named(g, op), 1, 100);

  occ.clear();
  EXPECT_EQ(occ.firstFit(probe, 1, 1, 100), 1);
  expectFirstFitMatchesBrute(occ, probe, 1, 100);
}

}  // namespace
}  // namespace mframe::core
