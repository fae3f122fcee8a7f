// Scale regression tests for the arena/CSR DFG core: deep chains and wide
// fan-outs that used to crash or go quadratic, verifiers on one column, ALU
// and register pair holding 10^5 ops, counter linearity in N (MFSA's
// frontier occupancy probes included), job-count invariance, the
// cold-graph concurrency hammers, and copies sharing one graph's storage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "analysis/dataflow/engine.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "dfg/builder.h"
#include "dfg/transforms.h"
#include "explore/explore.h"
#include "rtl/datapath.h"
#include "rtl/verify.h"
#include "sched/timeframes.h"
#include "sched/verify.h"
#include "trace/trace.h"
#include "util/strings.h"
#include "workloads/random_dfg.h"

namespace mframe {
namespace {

using dfg::NodeId;
using dfg::OpKind;

/// a0 = in + in; a_k = a_{k-1} + in — a dependency chain `ops` deep.
dfg::Dfg deepChain(int ops) {
  dfg::Builder b("chain");
  const NodeId in = b.input("in");
  NodeId prev = in;
  for (int i = 0; i < ops; ++i)
    prev = b.op(OpKind::Add, {prev, in}, util::format("a%d", i));
  b.output(prev, "out");
  return std::move(b).build();
}

/// One producer operation feeding `fans` consumers.
dfg::Dfg wideFanout(int fans) {
  dfg::Builder b("fanout");
  const NodeId x = b.input("x");
  const NodeId y = b.input("y");
  const NodeId hub = b.op(OpKind::Add, {x, y}, "hub");
  NodeId last = hub;
  for (int i = 0; i < fans; ++i)
    last = b.op(OpKind::Add, {hub, y}, util::format("f%d", i));
  b.output(last, "out");
  return std::move(b).build();
}

/// Longest-path depth domain: the dataflow engine's one-sweep DAG case.
struct DepthDomain {
  using Value = int;
  Value initial(const dfg::Node&) const { return 0; }
  Value transfer(const dfg::Node&, const std::vector<Value>& deps) const {
    int d = 0;
    for (int v : deps) d = std::max(d, v + 1);
    return d;
  }
  Value widen(const Value&, const Value& next) const { return next; }
};

std::uint64_t counter(trace::Counter c) { return trace::counterValue(c); }

/// Counters are off by default (bump() is a no-op); flip them on for the
/// linearity assertions and restore the previous state on exit.
struct CounterScope {
  bool prev = trace::countersEnabled();
  CounterScope() { trace::enableCounters(true); }
  ~CounterScope() { trace::enableCounters(prev); }
};

// ---------------------------------------------------------------------------
// Deep chain: 10^5 ops. Building, topoOrder, timeframes, cone extraction and
// the dataflow worklist must all complete iteratively (the old recursive /
// lazy-cache paths crashed or went quadratic here) and do linear work.

TEST(Scale, DeepChainCoreAlgorithmsAreLinear) {
  const CounterScope counters;
  constexpr int kOps = 100000;
  const dfg::Dfg g = deepChain(kOps);
  ASSERT_EQ(g.size(), static_cast<std::size_t>(kOps) + 1);

  const auto topo = g.topoOrder();
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->size(), g.size());

  sched::Constraints c;
  const auto tf = sched::computeTimeFrames(g, c);
  ASSERT_TRUE(tf.has_value());
  EXPECT_EQ(tf->criticalSteps(), kOps);
  // The chain leaves no mobility anywhere.
  EXPECT_EQ(tf->asap(g.findByName("a0")), 1);
  EXPECT_EQ(tf->alap(g.findByName("a0")), 1);
  const NodeId mid = g.findByName(util::format("a%d", kOps / 2));
  EXPECT_EQ(tf->asap(mid), kOps / 2 + 1);

  // Cone extraction around the middle of the chain: 2*hops + 1 members.
  const int hops = 16;
  const auto cut = dfg::extractCone(g, {mid}, hops);
  EXPECT_EQ(cut.coneOps, static_cast<std::size_t>(2 * hops + 1));
  EXPECT_FALSE(cut.cone.validate().has_value());

  // The worklist engine reaches the fixpoint in exactly one sweep: visits ==
  // nodes, and the counter advances by exactly that (linear, not quadratic).
  const std::uint64_t before = counter(trace::Counter::DataflowWorklistIterations);
  const auto fix = analysis::dataflow::solve(
      g, DepthDomain{}, analysis::dataflow::Direction::Forward);
  EXPECT_EQ(fix.visits, static_cast<int>(g.size()));
  EXPECT_EQ(fix.values.back(), kOps);
  EXPECT_EQ(counter(trace::Counter::DataflowWorklistIterations) - before,
            static_cast<std::uint64_t>(g.size()));
}

// ---------------------------------------------------------------------------
// Verifiers: a 10^5-op chain placed one op per step on a single FU column,
// then bound to a single ALU with its lifetimes packed into two registers
// (the chain value and the held input). The old all-pairs SCH007 and RTL005
// made ~5*10^9 pair checks each here; the bucketed checks see one op per
// step. ctest's TIMEOUT turns a quadratic regression into a failure, not a
// hang.

TEST(Scale, VerifiersStayLinear) {
  constexpr int kOps = 100000;
  const dfg::Dfg g = deepChain(kOps);
  sched::Schedule s(g);
  int step = 0;
  for (const NodeId op : g.operations()) s.place(op, ++step, 1);
  s.setNumSteps(step);
  sched::Constraints c;
  c.timeSteps = kOps;
  EXPECT_TRUE(sched::verifySchedule(s, c).empty());

  static const celllib::CellLibrary lib = celllib::ncrLike();
  rtl::AluInstance alu;
  alu.module = *lib.cheapestFor(dfg::FuType::Adder);
  alu.ops.assign(g.operations().begin(), g.operations().end());
  const rtl::Datapath d = rtl::buildDatapath(g, lib, s, {alu});
  EXPECT_EQ(d.regs.count(), 2u);
  EXPECT_TRUE(rtl::verifyDatapath(d, c, rtl::DesignStyle::Unrestricted).empty());
}

// ---------------------------------------------------------------------------
// Wide fan-out: a 10^4-consumer hub. succs()/opSuccs() spans, timeframes and
// cone extraction must handle the degree-10^4 node without blowup.

TEST(Scale, WideFanoutHubIsHandledLinearly) {
  constexpr int kFans = 10000;
  const dfg::Dfg g = wideFanout(kFans);
  const NodeId hub = g.findByName("hub");
  ASSERT_NE(hub, dfg::kNoNode);
  // hub feeds every fan op plus the chained `last` references: kFans edges.
  EXPECT_EQ(g.succs(hub).size(), static_cast<std::size_t>(kFans));
  EXPECT_EQ(g.opSuccs(hub).size(), static_cast<std::size_t>(kFans));

  const auto topo = g.topoOrder();
  ASSERT_TRUE(topo.has_value());

  sched::Constraints c;
  const auto tf = sched::computeTimeFrames(g, c);
  ASSERT_TRUE(tf.has_value());
  EXPECT_EQ(tf->criticalSteps(), 2);  // hub, then all fans in parallel

  // One hop from the hub reaches the hub plus every direct consumer.
  const auto cut = dfg::extractCone(g, {hub}, 1);
  EXPECT_EQ(cut.coneOps, static_cast<std::size_t>(kFans) + 1);

  const auto fix = analysis::dataflow::solve(
      g, DepthDomain{}, analysis::dataflow::Direction::Forward);
  EXPECT_EQ(fix.visits, static_cast<int>(g.size()));
}

// ---------------------------------------------------------------------------
// Counter linearity: doubling N at most doubles (within slack) the dataflow
// visits and the CSR edge count on the structured random workloads.

TEST(Scale, CountersGrowLinearlyInN) {
  const CounterScope counters;
  for (const auto topo : {workloads::DfgTopology::Conv,
                          workloads::DfgTopology::Lstm,
                          workloads::DfgTopology::Transformer}) {
    std::uint64_t visits[2];
    std::uint64_t edges[2];
    const int sizes[2] = {20000, 40000};
    for (int i = 0; i < 2; ++i) {
      workloads::RandomDfgOptions opt;
      opt.topology = topo;
      opt.numOps = sizes[i];
      opt.layerWidth = 64;
      opt.seed = 7;
      const std::uint64_t e0 = counter(trace::Counter::DfgCsrEdges);
      const dfg::Dfg g = workloads::randomDfg(opt);
      edges[i] = counter(trace::Counter::DfgCsrEdges) - e0;
      const std::uint64_t v0 =
          counter(trace::Counter::DataflowWorklistIterations);
      analysis::dataflow::solve(g, DepthDomain{},
                                analysis::dataflow::Direction::Forward);
      visits[i] = counter(trace::Counter::DataflowWorklistIterations) - v0;
    }
    // Linear growth: 2x the ops must stay within 2.2x the work. A quadratic
    // term would show up as a ratio near 4.
    EXPECT_LE(visits[1], visits[0] * 22 / 10) << "topology " << static_cast<int>(topo);
    EXPECT_GE(visits[1], visits[0]) << "topology " << static_cast<int>(topo);
    EXPECT_LE(edges[1], edges[0] * 22 / 10) << "topology " << static_cast<int>(topo);
  }
}

// ---------------------------------------------------------------------------
// MFSA's frontier scan asks ColumnOccupancy::firstFit for each (ALU, module)
// candidate's earliest step. Skipping the steps unconditional ops hold keeps
// the canPlace probes it makes linear in N on a transformer; walking each
// ALU's occupied run step by step made them grow 3.6x from 10k to 20k ops.

TEST(Scale, MfsaFrontierProbesStayLinear) {
  const CounterScope counters;
  const celllib::CellLibrary lib = celllib::ncrLike();
  std::uint64_t probes[2];
  const int sizes[2] = {10000, 20000};
  for (int i = 0; i < 2; ++i) {
    workloads::RandomDfgOptions wopt;
    wopt.topology = workloads::DfgTopology::Transformer;
    wopt.numOps = sizes[i];
    wopt.layerWidth = 32;
    wopt.numInputs = 8;
    wopt.seed = 42;
    const dfg::Dfg g = workloads::randomDfg(wopt);
    core::MfsaOptions opt;
    sched::Constraints probe;
    opt.constraints.timeSteps =
        sched::computeTimeFrames(g, probe)->criticalSteps();
    opt.traceLiapunov = false;
    const std::uint64_t p0 = counter(trace::Counter::OccupancyProbes);
    const auto r = core::runMfsa(g, lib, opt);
    ASSERT_TRUE(r.feasible) << r.error;
    probes[i] = counter(trace::Counter::OccupancyProbes) - p0;
  }
  EXPECT_GT(probes[0], 0u);
  EXPECT_LE(probes[1], probes[0] * 22 / 10)
      << "probes " << probes[0] << " -> " << probes[1];
}

// ---------------------------------------------------------------------------
// Job-count invariance: the explorer sweeping the same design with 1 or 4
// workers must do identical per-design work — the same schedules, the same
// dfg.*, mfsa.* and liapunov.* counter deltas.

TEST(Scale, ExploreCountersAreJobCountInvariant) {
  const CounterScope counters;
  workloads::RandomDfgOptions opt;
  opt.topology = workloads::DfgTopology::Conv;
  opt.numOps = 600;
  opt.layerWidth = 16;
  opt.seed = 3;
  const dfg::Dfg g = workloads::randomDfg(opt);
  const auto lib = celllib::ncrLike();

  explore::SweepSpec spec = explore::SweepSpec::defaults();
  // One step budget is enough to exercise every worker; the full 4-step
  // axis only multiplies runtime.
  sched::Constraints probe;
  spec.steps = {sched::computeTimeFrames(g, probe)->criticalSteps() + 1};

  const auto deltas = [&](int jobs) {
    trace::resetCounters();
    const auto r = explore::explore(g, lib, spec, jobs);
    EXPECT_GT(r.feasibleCount, 0);
    return std::vector<std::uint64_t>{
        counter(trace::Counter::MfsaCandidates),
        counter(trace::Counter::MfsaCommits),
        counter(trace::Counter::MfsaRestarts),
        counter(trace::Counter::LiapunovUpdates),
        counter(trace::Counter::DfgFreezes),
        counter(trace::Counter::DfgCsrEdges),
    };
  };
  const auto serial = deltas(1);
  const auto parallel = deltas(4);
  EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------------
// MFS frontier-vs-exhaustive equivalence: the dominance pruning is proved
// exact, so both modes must produce identical schedules on a graph large
// enough to exercise multicycle ops, restarts and both objective modes.

TEST(Scale, MfsFrontierMatchesExhaustive) {
  workloads::RandomDfgOptions wopt;
  wopt.topology = workloads::DfgTopology::Transformer;
  wopt.numOps = 800;
  wopt.layerWidth = 24;
  wopt.twoCyclePercent = 30;
  wopt.seed = 11;
  const dfg::Dfg g = workloads::randomDfg(wopt);

  for (const auto mode : {core::MfsLiapunov::Mode::TimeConstrained,
                          core::MfsLiapunov::Mode::ResourceConstrained}) {
    core::MfsOptions opt;
    opt.mode = mode;
    if (mode == core::MfsLiapunov::Mode::TimeConstrained) {
      sched::Constraints probe;
      opt.constraints.timeSteps =
          sched::computeTimeFrames(g, probe)->criticalSteps() + 2;
    } else {
      opt.constraints.fuLimit[dfg::FuType::Multiplier] = 6;
      opt.constraints.fuLimit[dfg::FuType::Adder] = 8;
    }
    opt.frameMode = core::MoveFrameMode::Exhaustive;
    const auto ex = core::runMfs(g, opt);
    opt.frameMode = core::MoveFrameMode::Frontier;
    const auto fr = core::runMfs(g, opt);

    ASSERT_TRUE(ex.feasible) << ex.error;
    ASSERT_TRUE(fr.feasible) << fr.error;
    EXPECT_EQ(ex.steps, fr.steps);
    EXPECT_EQ(ex.fuCount, fr.fuCount);
    EXPECT_EQ(ex.restarts, fr.restarts);
    for (NodeId id : g.operations()) {
      ASSERT_EQ(ex.schedule.stepOf(id), fr.schedule.stepOf(id)) << g.node(id).name;
      ASSERT_EQ(ex.schedule.columnOf(id), fr.schedule.columnOf(id)) << g.node(id).name;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency: 8 threads hammer the adjacency spans of a freshly built
// (cold) shared graph. The old lazy succCache_/succValid_ made this a data
// race on first access; building every index up front makes it read-only.
// Run under TSan in CI (DfgConcurrency* is in the sanitizer filter).

TEST(DfgConcurrency, SuccsHammerEightThreadsColdGraph) {
  workloads::RandomDfgOptions opt;
  opt.topology = workloads::DfgTopology::Conv;
  opt.numOps = 20000;
  opt.layerWidth = 32;
  opt.seed = 5;
  const dfg::Dfg g = workloads::randomDfg(opt);  // cold: no accessor touched

  constexpr int kThreads = 8;
  std::atomic<std::uint64_t> agreed{0};
  std::vector<std::uint64_t> sums(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g, &sums, t] {
      std::uint64_t sum = 0;
      for (NodeId id = 0; id < g.size(); ++id) {
        for (NodeId s : g.succs(id)) sum += s;
        for (NodeId s : g.opSuccs(id)) sum += s ^ 1u;
        for (NodeId p : g.opPreds(id)) sum += p ^ 2u;
      }
      sums[static_cast<std::size_t>(t)] = sum;
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(sums[0], sums[static_cast<std::size_t>(t)]);
    ++agreed;
  }
  EXPECT_GT(sums[0], 0u);
  EXPECT_EQ(agreed.load(), static_cast<std::uint64_t>(kThreads - 1));
}

// Copies of one graph made, dropped and read in 8 threads at once: each
// thread copies the graph, drops its copies and reads through another, so
// the shared store's reference count is contended throughout.

TEST(DfgConcurrency, CopiesAcrossEightThreads) {
  workloads::RandomDfgOptions opt;
  opt.topology = workloads::DfgTopology::Lstm;
  opt.numOps = 20000;
  opt.layerWidth = 32;
  opt.seed = 5;
  const dfg::Dfg g = workloads::randomDfg(opt);

  constexpr int kThreads = 8;
  std::vector<std::uint64_t> sums(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g, &sums, t] {
      std::uint64_t sum = 0;
      for (int round = 0; round < 4; ++round) {
        const dfg::Dfg mine = g;
        std::vector<dfg::Dfg> copies(64, mine);
        copies.clear();
        for (const dfg::Node& n : mine.nodes()) {
          sum += n.cycles + n.name.size() + n.branchPath.size();
          for (NodeId in : n.inputs) sum += in;
        }
      }
      sums[static_cast<std::size_t>(t)] = sum;
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_GT(sums[0], 0u);
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(sums[0], sums[static_cast<std::size_t>(t)]);
}

// ---------------------------------------------------------------------------
// Copies share storage: a built graph is immutable, so copying one (for a
// Schedule, a cache entry, a worker) copies one shared pointer and builds
// nothing.

TEST(DfgCore, CopyOfHundredThousandOpGraphSharesItsArrays) {
  const CounterScope counters;
  workloads::RandomDfgOptions opt;
  opt.topology = workloads::DfgTopology::Conv;
  opt.numOps = 100000;
  opt.layerWidth = 64;
  opt.seed = 42;
  const dfg::Dfg g = workloads::randomDfg(opt);
  ASSERT_GE(g.operations().size(), 100000u);

  const std::uint64_t freezes = counter(trace::Counter::DfgFreezes);
  const std::uint64_t edges = counter(trace::Counter::DfgCsrEdges);
  const dfg::Dfg copy = g;  // NOLINT(performance-unnecessary-copy-initialization)
  const sched::Schedule s(g);
  EXPECT_EQ(counter(trace::Counter::DfgFreezes), freezes);
  EXPECT_EQ(counter(trace::Counter::DfgCsrEdges), edges);

  EXPECT_EQ(copy.operations().data(), g.operations().data());
  EXPECT_EQ(s.graph().operations().data(), g.operations().data());
  const NodeId last = static_cast<NodeId>(g.size() - 1);
  EXPECT_EQ(&copy.node(last).name, &g.node(last).name);
  EXPECT_EQ(copy.node(last).inputs.data(), g.node(last).inputs.data());
  EXPECT_EQ(copy.succs(0).data(), g.succs(0).data());
}

}  // namespace
}  // namespace mframe
