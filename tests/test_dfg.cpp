#include "dfg/dfg.h"

#include <gtest/gtest.h>

#include <ostream>

#include "dfg/builder.h"
#include "dfg/parser.h"
#include "helpers.h"

namespace mframe::dfg {
namespace {

TEST(Dfg, PredsAndSuccsAreConsistent) {
  const Dfg g = test::smallDiamond();
  const NodeId y = g.findByName("y");
  ASSERT_NE(y, kNoNode);
  EXPECT_EQ(g.node(y).inputs.size(), 2u);
  EXPECT_EQ(g.succs(y).size(), 1u);  // f consumes y
  for (NodeId p : g.node(y).inputs) {
    const auto& ss = g.succs(p);
    EXPECT_NE(std::find(ss.begin(), ss.end(), y), ss.end());
  }
}

TEST(Dfg, OpPredsFilterInputs) {
  const Dfg g = test::smallDiamond();
  const NodeId s = g.findByName("s");
  EXPECT_EQ(g.node(s).inputs.size(), 2u);  // two Input nodes
  EXPECT_TRUE(g.opPreds(s).empty());       // no *operation* predecessors
  const NodeId y = g.findByName("y");
  EXPECT_EQ(g.opPreds(y).size(), 2u);
}

TEST(Dfg, OperationsExcludeInputsAndConsts) {
  const Dfg g = test::smallDiamond();
  EXPECT_EQ(g.operations().size(), 4u);
  EXPECT_EQ(g.size(), 9u);
}

TEST(Dfg, CountOfType) {
  const Dfg g = test::smallDiamond();
  EXPECT_EQ(g.countOfType(FuType::Adder), 1u);
  EXPECT_EQ(g.countOfType(FuType::Multiplier), 1u);
  EXPECT_EQ(g.countOfType(FuType::Divider), 0u);
}

TEST(Dfg, TopoOrderRespectsEdges) {
  const Dfg g = test::smallDiamond();
  const auto order = g.topoOrder();
  ASSERT_TRUE(order.has_value());
  std::vector<std::size_t> pos(g.size());
  for (std::size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  for (const Node& n : g.nodes())
    for (NodeId in : n.inputs) EXPECT_LT(pos[in], pos[n.id]);
}

TEST(Dfg, ValidateAcceptsWellFormed) {
  EXPECT_FALSE(test::smallDiamond().validate().has_value());
  EXPECT_FALSE(test::branchy().validate().has_value());
}

TEST(Dfg, ValidateRejectsDuplicateNames) {
  Builder b("bad");
  b.input("x");
  b.input("x");
  const Dfg g = std::move(b).buildLenient();
  ASSERT_TRUE(g.validate().has_value());
  EXPECT_NE(g.validate()->find("duplicate"), std::string::npos);
}

TEST(Dfg, ValidateRejectsWrongArity) {
  Builder b("bad");
  const NodeId xi = b.input("x");
  b.op(OpKind::Add, {xi}, "a");  // Add needs 2
  const Dfg g = std::move(b).buildLenient();
  ASSERT_TRUE(g.validate().has_value());
  EXPECT_NE(g.validate()->find("expects 2 inputs"), std::string::npos);
}

TEST(Dfg, ValidateRejectsForwardReferences) {
  Builder b("bad");
  b.op(OpKind::Not, {1}, "n");  // references a node added later
  b.input("x");
  EXPECT_TRUE(std::move(b).buildLenient().validate().has_value());
}

TEST(Dfg, ValidateRejectsNonPositiveCycles) {
  Builder b("bad");
  const NodeId xi = b.input("x");
  b.op(OpKind::Not, {xi}, "n", /*cycles=*/0);
  EXPECT_TRUE(std::move(b).buildLenient().validate().has_value());
}

TEST(Dfg, ValidateRejectsMalformedBranchPath) {
  Builder b("bad");
  const NodeId xi = b.input("x");
  b.setBranchPath(b.op(OpKind::Not, {xi}, "n"), "c1");  // odd component count
  EXPECT_TRUE(std::move(b).buildLenient().validate().has_value());
}

TEST(Dfg, BuildThrowsOnMalformedGraph) {
  Builder b("bad");
  b.input("x");
  b.input("x");
  EXPECT_THROW(std::move(b).build(), DfgError);
}

TEST(Dfg, BuilderEditLeavesSourceGraphUntouched) {
  const Dfg g = test::smallDiamond();
  const std::string before = serialize(g);
  const NodeId y = g.findByName("y");

  Builder b(g);
  b.setName("edited");
  b.setCycles(y, 3);
  b.setDelayNs(y, 7.5);
  b.setWidth(y, 12);
  b.setBranchPath(y, "c1.t");
  const NodeId extra = b.inc(y, "yinc");
  b.output(extra, "yinc");
  const Dfg h = std::move(b).build();

  // The edit sees every change, at the source's node ids.
  ASSERT_EQ(h.size(), g.size() + 1);
  EXPECT_EQ(h.name(), "edited");
  EXPECT_EQ(h.node(y).cycles, 3);
  EXPECT_EQ(h.node(y).delayNs, 7.5);
  EXPECT_EQ(h.node(y).width, 12);
  EXPECT_EQ(h.node(y).branchPath, "c1.t");
  EXPECT_FALSE(h.isUnconditional(y));
  EXPECT_EQ(h.findByName("yinc"), extra);
  EXPECT_EQ(h.succs(y).back(), extra);
  EXPECT_EQ(h.outputs().size(), g.outputs().size() + 1);

  // The source is exactly as it was.
  EXPECT_EQ(serialize(g), before);
  EXPECT_EQ(g.name(), "diamond");
  EXPECT_EQ(g.node(y).cycles, 1);
  EXPECT_TRUE(g.isUnconditional(y));
  EXPECT_EQ(g.findByName("yinc"), kNoNode);
  EXPECT_EQ(g.succs(y).size(), 1u);
  EXPECT_EQ(g.operations().size(), 4u);
}

TEST(Dfg, FindByName) {
  const Dfg g = test::smallDiamond();
  EXPECT_NE(g.findByName("y"), kNoNode);
  EXPECT_EQ(g.findByName("zzz"), kNoNode);
}

struct MutexCase {
  const char* a;
  const char* b;
  bool exclusive;
};

// Without this gtest prints the raw bytes of the two pointers, so the case
// names (which ctest derives from the printed value) would change with every
// load address.
void PrintTo(const MutexCase& c, std::ostream* os) {
  auto path = [](const char* p) { return *p ? p : "(unconditional)"; };
  *os << path(c.a) << " vs " << path(c.b)
      << (c.exclusive ? " is exclusive" : " is not exclusive");
}

class BranchPathTest : public ::testing::TestWithParam<MutexCase> {};

TEST_P(BranchPathTest, PathsMutuallyExclusive) {
  const auto& c = GetParam();
  EXPECT_EQ(pathsMutuallyExclusive(c.a, c.b), c.exclusive)
      << c.a << " vs " << c.b;
  EXPECT_EQ(pathsMutuallyExclusive(c.b, c.a), c.exclusive) << "symmetry";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BranchPathTest,
    ::testing::Values(
        MutexCase{"", "", false},                   // both unconditional
        MutexCase{"", "c1.t", false},               // one unconditional
        MutexCase{"c1.t", "c1.e", true},            // sibling arms
        MutexCase{"c1.t", "c1.t", false},           // same arm
        MutexCase{"c1.t", "c2.t", false},           // unrelated conditionals
        MutexCase{"c1.t", "c1.t.c2.e", false},      // nested inside same arm
        MutexCase{"c1.t.c2.t", "c1.t.c2.e", true},  // nested siblings
        MutexCase{"c1.t.c2.t", "c1.e.c9.x", true},  // diverge at outer arm
        MutexCase{"c1.t.c2.t", "c1.t.c3.e", false}  // diverge at cond id
        ));

TEST(Dfg, MutuallyExclusiveUsesNodePaths) {
  const Dfg g = test::branchy();
  const NodeId t1 = g.findByName("t1");
  const NodeId e1 = g.findByName("e1");
  const NodeId j = g.findByName("j");
  EXPECT_TRUE(g.mutuallyExclusive(t1, e1));
  EXPECT_FALSE(g.mutuallyExclusive(t1, j));
}

TEST(Dfg, OutputsRecorded) {
  const Dfg g = test::smallDiamond();
  ASSERT_EQ(g.outputs().size(), 2u);
  EXPECT_EQ(g.outputs()[0].second, "y");
}

}  // namespace
}  // namespace mframe::dfg
