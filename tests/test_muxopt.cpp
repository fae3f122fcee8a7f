#include "alloc/muxopt.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "celllib/ncr_like.h"
#include "core/mfsa.h"
#include "dfg/builder.h"
#include "workloads/benchmarks.h"

namespace mframe::alloc {
namespace {

using dfg::NodeId;

TEST(MuxOpt, NonCommutativeOperandsPinnedToPorts) {
  dfg::Builder b("nc");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto s1 = b.sub(x, y, "s1");
  const auto s2 = b.sub(x, y, "s2");
  b.output(s1, "o1");
  b.output(s2, "o2");
  const dfg::Dfg g = std::move(b).build();
  const auto a = arrangeInputs(g, {s1, s2});
  EXPECT_EQ(a.left, std::vector<NodeId>{x});
  EXPECT_EQ(a.right, std::vector<NodeId>{y});
  EXPECT_EQ(a.totalInputs(), 2u);
}

TEST(MuxOpt, CommutativeSwapImprovesSharing) {
  // sub pins x->L, y->R; the add (y, x) should swap to reuse both.
  dfg::Builder b("sw");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto s = b.sub(x, y, "s");
  const auto a = b.add(y, x, "a");
  b.output(s, "o1");
  b.output(a, "o2");
  const dfg::Dfg g = std::move(b).build();
  const auto arr = arrangeInputs(g, {s, a});
  EXPECT_EQ(arr.totalInputs(), 2u);
  EXPECT_TRUE(arr.swapped.at(a));
  EXPECT_FALSE(arr.swapped.at(s));
}

TEST(MuxOpt, NoSwapWhenNaturalOrderIsAsGood) {
  dfg::Builder b("nat");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto a1 = b.add(x, y, "a1");
  const auto a2 = b.add(x, y, "a2");
  b.output(a1, "o1");
  b.output(a2, "o2");
  const dfg::Dfg g = std::move(b).build();
  const auto arr = arrangeInputs(g, {a1, a2});
  EXPECT_FALSE(arr.swapped.at(a2));
  EXPECT_EQ(arr.totalInputs(), 2u);
}

TEST(MuxOpt, UnaryOpsUseTheLeftPort) {
  dfg::Builder b("un");
  const auto x = b.input("x");
  const auto n = b.bnot(x, "n");
  b.output(n, "o");
  const dfg::Dfg g = std::move(b).build();
  const auto arr = arrangeInputs(g, {n});
  EXPECT_EQ(arr.left.size(), 1u);
  EXPECT_TRUE(arr.right.empty());
}

TEST(MuxOpt, SignalsDeduplicatedPerPort) {
  dfg::Builder b("dup");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto z = b.input("z");
  const auto s1 = b.sub(x, y, "s1");
  const auto s2 = b.sub(x, z, "s2");  // x reused on the left port
  b.output(s1, "o1");
  b.output(s2, "o2");
  const dfg::Dfg g = std::move(b).build();
  const auto arr = arrangeInputs(g, {s1, s2});
  EXPECT_EQ(arr.left.size(), 1u);
  EXPECT_EQ(arr.right.size(), 2u);
}

TEST(MuxOpt, CostUsesTheNonlinearTable) {
  const celllib::CellLibrary lib = celllib::ncrLike();
  MuxArrangement one;
  one.left = {0};
  one.right = {1};
  EXPECT_DOUBLE_EQ(muxCostOf(lib, one), 0.0);  // wires

  MuxArrangement two;
  two.left = {0, 1};
  two.right = {2};
  EXPECT_DOUBLE_EQ(muxCostOf(lib, two), lib.muxCost(2));
}

TEST(MuxOpt, DeterministicInOpOrder) {
  dfg::Builder b("det");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto z = b.input("z");
  const auto a1 = b.add(x, y, "a1");
  const auto a2 = b.add(z, x, "a2");
  const auto a3 = b.add(y, z, "a3");
  b.output(a3, "o");
  (void)a1;
  (void)a2;
  const dfg::Dfg g = std::move(b).build();
  const auto r1 = arrangeInputs(g, {a1, a2, a3});
  const auto r2 = arrangeInputs(g, {a1, a2, a3});
  EXPECT_EQ(r1.left, r2.left);
  EXPECT_EQ(r1.right, r2.right);
}

TEST(MuxOpt, DeltaCommutativeAppendIsPureIncrement) {
  // sub pins x->L, y->R; appending add(y, x) must replay the swap decision
  // against the base without rebuilding.
  dfg::Builder b("dci");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto s = b.sub(x, y, "s");
  const auto a = b.add(y, x, "a");
  b.output(a, "o");
  const dfg::Dfg g = std::move(b).build();
  const auto base = arrangeInputs(g, {s});
  const auto d = arrangeInputsDelta(g, base, {s}, a);
  EXPECT_FALSE(d.rebuilt);
  EXPECT_TRUE(d.swapped);
  EXPECT_EQ(d.left, 1u);
  EXPECT_EQ(d.right, 1u);
  const auto full = arrangeInputs(g, {s, a});
  EXPECT_EQ(d.left, full.left.size());
  EXPECT_EQ(d.right, full.right.size());
  EXPECT_EQ(d.swapped, full.swapped.at(a));
}

TEST(MuxOpt, DeltaPinnedFixedOrderAddsNoSignals) {
  // A second sub over already-pinned signals leaves both ports untouched —
  // the provably-exact fast path, no rebuild.
  dfg::Builder b("dpf");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto s1 = b.sub(x, y, "s1");
  const auto s2 = b.sub(x, y, "s2");
  const auto n = b.bnot(x, "n");  // unary over a pinned left signal
  b.output(s2, "o");
  b.output(n, "on");
  const dfg::Dfg g = std::move(b).build();
  const auto base = arrangeInputs(g, {s1});
  const auto d2 = arrangeInputsDelta(g, base, {s1}, s2);
  EXPECT_FALSE(d2.rebuilt);
  EXPECT_EQ(d2.left, base.left.size());
  EXPECT_EQ(d2.right, base.right.size());
  const auto dn = arrangeInputsDelta(g, base, {s1}, n);
  EXPECT_FALSE(dn.rebuilt);
  EXPECT_EQ(dn.left, base.left.size());
  EXPECT_EQ(dn.right, base.right.size());
}

TEST(MuxOpt, DeltaUnpinnedFixedOrderFallsBackToRebuild) {
  // base = {add(y,x)} places y->L, x->R via pass 2. Appending sub(x,y) pins
  // the opposite orientation in pass 1 and flips the add's decision: a naive
  // increment would report 2+2 signals, the exact answer is 1+1.
  dfg::Builder b("dub");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto a = b.add(y, x, "a");
  const auto s = b.sub(x, y, "s");
  b.output(s, "o");
  const dfg::Dfg g = std::move(b).build();
  const auto base = arrangeInputs(g, {a});
  const auto d = arrangeInputsDelta(g, base, {a}, s);
  EXPECT_TRUE(d.rebuilt);
  EXPECT_EQ(d.left, 1u);
  EXPECT_EQ(d.right, 1u);
  const auto full = arrangeInputs(g, {a, s});
  EXPECT_EQ(d.left, full.left.size());
  EXPECT_EQ(d.right, full.right.size());
}

TEST(MuxOpt, DeltaMatchesBatchOnSystematicOpMixes) {
  // Drive the delta path through many mixed op sets over a shared signal
  // pool and check every single-op append against the from-scratch
  // arrangement. The LCG keeps the mixes varied but deterministic.
  std::uint32_t state = 0x2545f491u;
  const auto rnd = [&state](std::uint32_t m) {
    state = state * 1664525u + 1013904223u;
    return (state >> 16) % m;
  };
  for (int trial = 0; trial < 24; ++trial) {
    dfg::Builder b("mix" + std::to_string(trial));
    std::vector<NodeId> pool;
    for (int i = 0; i < 5; ++i)
      pool.push_back(b.input("x" + std::to_string(i)));
    std::vector<NodeId> ops;
    for (int i = 0; i < 10; ++i) {
      const NodeId u = pool[rnd(static_cast<std::uint32_t>(pool.size()))];
      const NodeId v = pool[rnd(static_cast<std::uint32_t>(pool.size()))];
      const std::string name = "n" + std::to_string(i);
      switch (rnd(4)) {
        case 0:
          ops.push_back(b.add(u, v, name));
          break;
        case 1:
          ops.push_back(b.bxor(u, v, name));
          break;
        case 2:
          ops.push_back(b.sub(u, v, name));
          break;
        default:
          ops.push_back(b.bnot(u, name));
          break;
      }
    }
    b.output(ops.back(), "o");
    const dfg::Dfg g = std::move(b).build();
    std::vector<NodeId> prefix;
    for (NodeId next : ops) {
      const MuxArrangement base = arrangeInputs(g, prefix);
      const MuxDelta d = arrangeInputsDelta(g, base, prefix, next);
      prefix.push_back(next);
      const MuxArrangement full = arrangeInputs(g, prefix);
      ASSERT_EQ(d.left, full.left.size())
          << g.name() << " appending " << g.node(next).name;
      ASSERT_EQ(d.right, full.right.size())
          << g.name() << " appending " << g.node(next).name;
      if (!d.rebuilt) EXPECT_EQ(d.swapped, full.swapped.at(next));
    }
  }
}

TEST(MuxOpt, DeltaMatchesBatchOnEveryMfsaAluPrefix) {
  // MFSA prices every candidate with arrangeInputsDelta against the ALU's
  // arrangement of the ops bound so far. On every prefix of every op list
  // MFSA builds for the benchmark designs, and for every op of the design,
  // the delta must give the port sizes of the from-scratch arrangement.
  const celllib::CellLibrary lib = celllib::ncrLike();
  struct Case {
    std::string id;
    dfg::Dfg g;
    sched::Constraints constraints;
  };
  std::vector<Case> cases;
  for (const auto& bc : workloads::paperSuite()) {
    sched::Constraints c = bc.constraints;
    c.timeSteps = bc.timeSweep.front();
    cases.push_back({bc.id, bc.graph, c});
  }
  sched::Constraints cf;
  cf.timeSteps = 8;
  cases.push_back({"fdct", workloads::fdctLike(), cf});
  sched::Constraints ci;
  ci.timeSteps = 13;
  cases.push_back({"iir", workloads::iirBiquads(), ci});

  std::size_t checked = 0;
  for (const auto& tc : cases) {
    core::MfsaOptions o;
    o.constraints = tc.constraints;
    const auto r = core::runMfsa(tc.g, lib, o);
    ASSERT_TRUE(r.feasible) << tc.id << ": " << r.error;
    for (const auto& alu : r.datapath.alus) {
      std::vector<NodeId> prefix;
      for (std::size_t len = 0; len <= alu.ops.size(); ++len) {
        const MuxArrangement base = arrangeInputs(tc.g, prefix);
        for (NodeId x : tc.g.operations()) {
          const MuxDelta d = arrangeInputsDelta(tc.g, base, prefix, x);
          std::vector<NodeId> extended = prefix;
          extended.push_back(x);
          const MuxArrangement full = arrangeInputs(tc.g, extended);
          ASSERT_EQ(d.left, full.left.size())
              << tc.id << " prefix " << len << " + " << tc.g.node(x).name;
          ASSERT_EQ(d.right, full.right.size())
              << tc.id << " prefix " << len << " + " << tc.g.node(x).name;
          ++checked;
        }
        if (len < alu.ops.size()) prefix.push_back(alu.ops[len]);
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

}  // namespace
}  // namespace mframe::alloc
