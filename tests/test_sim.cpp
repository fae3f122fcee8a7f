#include <gtest/gtest.h>

#include "celllib/ncr_like.h"
#include "core/mfsa.h"
#include "dfg/builder.h"
#include "dfg/parser.h"
#include "helpers.h"
#include "rtl/controller.h"
#include "sim/dfg_eval.h"
#include "sim/rtl_sim.h"
#include "workloads/benchmarks.h"

namespace mframe::sim {
namespace {

TEST(EvalOp, ArithmeticMasksToWidth) {
  EXPECT_EQ(evalOp(dfg::OpKind::Add, 0xFFFF, 1), 0u);
  EXPECT_EQ(evalOp(dfg::OpKind::Sub, 0, 1), 0xFFFFu);
  EXPECT_EQ(evalOp(dfg::OpKind::Mul, 0x100, 0x100), 0u);  // 2^16 wraps
  EXPECT_EQ(evalOp(dfg::OpKind::Mul, 3, 5), 15u);
}

TEST(EvalOp, DivisionByZeroIsZero) {
  EXPECT_EQ(evalOp(dfg::OpKind::Div, 42, 0), 0u);
  EXPECT_EQ(evalOp(dfg::OpKind::Div, 42, 5), 8u);
}

TEST(EvalOp, RelationalsAreBoolean) {
  EXPECT_EQ(evalOp(dfg::OpKind::Lt, 2, 3), 1u);
  EXPECT_EQ(evalOp(dfg::OpKind::Ge, 2, 3), 0u);
  EXPECT_EQ(evalOp(dfg::OpKind::Eq, 7, 7), 1u);
}

TEST(EvalOp, ShiftsModuloWidth) {
  EXPECT_EQ(evalOp(dfg::OpKind::Shl, 1, 4), 16u);
  EXPECT_EQ(evalOp(dfg::OpKind::Shl, 1, 16), 1u);  // 16 % 16 == 0
  EXPECT_EQ(evalOp(dfg::OpKind::Shr, 16, 2), 4u);
}

TEST(EvalOp, WiderWordsSupported) {
  EXPECT_EQ(evalOp(dfg::OpKind::Add, 0xFFFF, 1, 32), 0x10000u);
}

TEST(DfgEval, DiamondComputesCorrectly) {
  const dfg::Dfg g = test::smallDiamond();
  // y = (a+b)*(c-d); f = y < lim
  const auto r = evalDfg(g, {{"a", 3}, {"b", 4}, {"c", 10}, {"d", 2}, {"lim", 100}});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.outputs.at("y"), 56u);
  EXPECT_EQ(r.outputs.at("f"), 1u);
}

TEST(DfgEval, MissingInputsDefaultToZero) {
  const dfg::Dfg g = test::smallDiamond();
  const auto r = evalDfg(g, {});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.outputs.at("y"), 0u);
}

TEST(DfgEval, ConstantsRespected) {
  const auto g = dfg::parse("dfg k\ninput x\nconst 7 k7\nop add s x k7\noutput o s\n");
  const auto r = evalDfg(g, {{"x", 5}});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.outputs.at("o"), 12u);
}

TEST(DfgEval, LoopSuperRejected) {
  dfg::Builder b("loopy");
  b.op(dfg::OpKind::LoopSuper, {}, "l");
  const auto r = evalDfg(std::move(b).build(), {});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("LoopSuper"), std::string::npos);
}

// ---------------------------------------------------------------------------

core::MfsaResult synth(const dfg::Dfg& g, int cs,
                       sched::Constraints base = {}) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints = base;
  o.constraints.timeSteps = cs;
  return core::runMfsa(g, lib, o);
}

void expectEquivalent(const dfg::Dfg& g, const core::MfsaResult& r,
                      const std::map<std::string, Word>& inputs) {
  ASSERT_TRUE(r.feasible) << r.error;
  const auto fsm = rtl::buildController(r.datapath);
  const auto rtlOut = simulateRtl(r.datapath, fsm, inputs);
  ASSERT_TRUE(rtlOut.ok) << rtlOut.error;
  const auto ref = evalDfg(g, inputs);
  ASSERT_TRUE(ref.ok) << ref.error;
  for (const auto& [name, value] : ref.outputs)
    EXPECT_EQ(rtlOut.outputs.at(name), value) << "output " << name;
}

TEST(RtlSim, DiamondMatchesReference) {
  const dfg::Dfg g = test::smallDiamond();
  expectEquivalent(g, synth(g, 3),
                   {{"a", 3}, {"b", 4}, {"c", 10}, {"d", 2}, {"lim", 100}});
}

TEST(RtlSim, DiffeqMatchesReferenceAtSeveralConstraints) {
  const dfg::Dfg g = workloads::diffeq();
  const std::map<std::string, Word> in{
      {"x", 2}, {"y", 5}, {"u", 9}, {"dx", 1}, {"a", 30}};
  for (int cs : {4, 5, 8}) expectEquivalent(g, synth(g, cs), in);
}

TEST(RtlSim, FirComputesConvolution) {
  const dfg::Dfg g = workloads::fir8();
  std::map<std::string, Word> in;
  Word expect = 0;
  for (int i = 0; i < 8; ++i) {
    in["x" + std::to_string(i)] = static_cast<Word>(i + 2);
    expect += static_cast<Word>(i + 1) * static_cast<Word>(i + 2);
  }
  const auto r = synth(g, 9);
  ASSERT_TRUE(r.feasible);
  const auto fsm = rtl::buildController(r.datapath);
  const auto out = simulateRtl(r.datapath, fsm, in);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.outputs.at("y"), expect & 0xFFFF);
}

TEST(RtlSim, ChainedDesignMatchesReference) {
  sched::Constraints base;
  base.allowChaining = true;
  base.clockNs = 100.0;
  const dfg::Dfg g = workloads::chained();
  expectEquivalent(g, synth(g, 4, base),
                   {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4},
                    {"e", 5}, {"f", 6}, {"g", 7}, {"h", 8}});
}

TEST(RtlSim, MulticycleArFilterMatchesReference) {
  const dfg::Dfg g = workloads::arLattice();
  expectEquivalent(g, synth(g, 13), {{"p0", 3}, {"q0", 7}});
}

TEST(RtlSim, EwfMatchesReference) {
  const dfg::Dfg g = workloads::ewfLike();
  std::map<std::string, Word> in;
  for (int i = 0; i < 8; ++i) in["v" + std::to_string(i)] = static_cast<Word>(11 * i + 1);
  expectEquivalent(g, synth(g, 18), in);
}

TEST(RtlSim, BothStylesAgree) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const dfg::Dfg g = workloads::tseng();
  const std::map<std::string, Word> in{{"a", 5}, {"b", 6}, {"c", 20}, {"d", 3},
                                       {"e", 1}, {"f", 2}, {"g", 9}, {"h", 4}};
  for (auto style :
       {rtl::DesignStyle::Unrestricted, rtl::DesignStyle::NoSelfLoop}) {
    core::MfsaOptions o;
    o.constraints.timeSteps = 4;
    o.style = style;
    const auto r = core::runMfsa(g, lib, o);
    expectEquivalent(g, r, in);
  }
}

}  // namespace
}  // namespace mframe::sim
