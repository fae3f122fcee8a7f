#include "dfg/parser.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "dfg/builder.h"
#include "helpers.h"

namespace mframe::dfg {
namespace {

constexpr const char* kSample = R"(# a small example
dfg sample
input a
input b
const 3 k
op add s a b
op mul p s k cycles=2 delay=150
output y p
)";

TEST(Parser, ParsesBasicGraph) {
  const Dfg g = parse(kSample);
  EXPECT_EQ(g.name(), "sample");
  EXPECT_EQ(g.size(), 5u);
  EXPECT_EQ(g.operations().size(), 2u);
  const NodeId p = g.findByName("p");
  ASSERT_NE(p, kNoNode);
  EXPECT_EQ(g.node(p).cycles, 2);
  EXPECT_DOUBLE_EQ(g.node(p).delayNs, 150.0);
  ASSERT_EQ(g.outputs().size(), 1u);
  EXPECT_EQ(g.outputs()[0].second, "y");
  EXPECT_EQ(g.outputs()[0].first, p);
}

TEST(Parser, ParsesConstValue) {
  const Dfg g = parse(kSample);
  const NodeId k = g.findByName("k");
  EXPECT_EQ(g.node(k).kind, OpKind::Const);
  EXPECT_EQ(g.node(k).constValue, 3);
}

TEST(Parser, AcceptsSymbolKinds) {
  const Dfg g = parse("dfg s\ninput a\ninput b\nop * m a b\n");
  EXPECT_EQ(g.node(g.findByName("m")).kind, OpKind::Mul);
}

TEST(Parser, ParsesBranchAttribute) {
  const Dfg g = parse(
      "dfg s\ninput a\ninput b\n"
      "op add t a b branch=c1.t\n"
      "op add e a b branch=c1.e\n");
  EXPECT_TRUE(g.mutuallyExclusive(g.findByName("t"), g.findByName("e")));
}

TEST(Parser, SerializeRoundTrips) {
  const Dfg g1 = test::smallDiamond();
  const Dfg g2 = parse(serialize(g1));
  EXPECT_EQ(g2.name(), g1.name());
  ASSERT_EQ(g2.size(), g1.size());
  for (NodeId i = 0; i < g1.size(); ++i) {
    EXPECT_EQ(g2.node(i).kind, g1.node(i).kind);
    EXPECT_EQ(g2.node(i).name, g1.node(i).name);
    EXPECT_TRUE(std::ranges::equal(g2.node(i).inputs, g1.node(i).inputs));
  }
  EXPECT_EQ(g2.outputs().size(), g1.outputs().size());
}

TEST(Parser, RoundTripsAttributes) {
  Builder b("attrs");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.pushBranch("c9", "z");
  b.op(OpKind::Mul, {x, y}, "m", 2, 123.0);
  b.popBranch();
  const Dfg g = parse(serialize(std::move(b).build()));
  const Node& m = g.node(g.findByName("m"));
  EXPECT_EQ(m.cycles, 2);
  EXPECT_DOUBLE_EQ(m.delayNs, 123.0);
  EXPECT_EQ(m.branchPath, "c9.z");
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse("dfg s\ninput a\nop add x a missing\n");
    FAIL() << "expected DfgError";
  } catch (const DfgError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
}

TEST(Parser, RejectsUnknownKind) {
  EXPECT_THROW(parse("dfg s\ninput a\nop frobnicate x a\n"), DfgError);
}

TEST(Parser, RejectsUnknownStatement) {
  EXPECT_THROW(parse("dfg s\nwibble\n"), DfgError);
}

TEST(Parser, RejectsMissingHeader) {
  EXPECT_THROW(parse("input a\n"), DfgError);
}

TEST(Parser, RejectsBadAttribute) {
  EXPECT_THROW(parse("dfg s\ninput a\ninput b\nop add x a b zap=1\n"), DfgError);
  EXPECT_THROW(parse("dfg s\ninput a\ninput b\nop add x a b cycles=0\n"), DfgError);
}

TEST(Parser, RejectsOutputOfUnknownSignal) {
  EXPECT_THROW(parse("dfg s\noutput y nothere\n"), DfgError);
}

TEST(Parser, CommentsAndBlankLinesIgnored) {
  const Dfg g = parse("\n# hi\ndfg s\n\ninput a # trailing\n");
  EXPECT_EQ(g.size(), 1u);
}

TEST(Parser, RejectsMalformedNumericAttributes) {
  // delay=abc used to strtod to 0.0 with no end-pointer check; a silently
  // zeroed override rewrites the scheduler's chaining decisions, so every
  // downstream report described a design the author never wrote.
  EXPECT_THROW(parse("dfg s\ninput a\ninput b\nop add x a b delay=abc\n"),
               DfgError);
  EXPECT_THROW(parse("dfg s\ninput a\ninput b\nop add x a b delay=30x\n"),
               DfgError);
  EXPECT_THROW(parse("dfg s\ninput a\ninput b\nop add x a b delay=-5\n"),
               DfgError);
  EXPECT_THROW(parse("dfg s\ninput a\ninput b\nop add x a b cycles=two\n"),
               DfgError);
  EXPECT_THROW(parse("dfg s\ninput a\ninput b\nop add x a b width=abc\n"),
               DfgError);
  EXPECT_THROW(parse("dfg s\ninput a width=8bit\n"), DfgError);
  EXPECT_THROW(parse("dfg s\nconst abc k\n"), DfgError);
}

TEST(Parser, LenientRecordsMalformedNumericsAndKeepsDefaults) {
  std::vector<ParseIssue> issues;
  const Dfg g = parseLenient(
      "dfg s\n"
      "input a\n"
      "input b\n"
      "const 4x k\n"
      "op add x a b delay=abc width=wide cycles=two\n",
      issues);
  ASSERT_EQ(issues.size(), 4u);
  EXPECT_NE(issues[0].message.find("bad const value '4x'"), std::string::npos);
  EXPECT_EQ(issues[0].line, 4);
  EXPECT_NE(issues[1].message.find("bad delay value 'abc'"), std::string::npos);
  EXPECT_NE(issues[2].message.find("bad width value 'wide'"), std::string::npos);
  EXPECT_NE(issues[3].message.find("bad cycles value 'two'"), std::string::npos);
  EXPECT_EQ(issues[3].line, 5);

  // The malformed attributes stay at their defaults — in particular delayNs
  // stays negative ("use the library delay") instead of becoming a zero
  // override that would let the scheduler chain freely.
  const NodeId x = g.findByName("x");
  ASSERT_NE(x, kNoNode);
  EXPECT_EQ(g.node(x).cycles, 1);
  EXPECT_LT(g.node(x).delayNs, 0.0);
  EXPECT_EQ(g.node(x).width, 0);
  EXPECT_EQ(g.node(g.findByName("k")).constValue, 0);
}

TEST(Parser, LenientKeepsWellFormedOutOfRangeValuesForLint) {
  // Well-formed but invalid values (cycles=0) are a lint rule's business,
  // not a parse problem: lenient mode stores them as written so the
  // diagnostic carries its proper rule id. An explicit delay=0 is a valid
  // override, distinct from the unset default.
  std::vector<ParseIssue> issues;
  const Dfg g = parseLenient(
      "dfg s\ninput a\ninput b\nop add x a b cycles=0 delay=0\n", issues);
  EXPECT_TRUE(issues.empty());
  const NodeId x = g.findByName("x");
  EXPECT_EQ(g.node(x).cycles, 0);
  EXPECT_DOUBLE_EQ(g.node(x).delayNs, 0.0);
}

}  // namespace
}  // namespace mframe::dfg
