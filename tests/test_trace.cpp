// The tracing and metrics layer: counter registry semantics, span/JSON
// structure, and the determinism contract — counters are commutative sums
// of relaxed atomics, so a sweep's metrics block is bit-identical across
// --jobs counts. The Explore*-named suites also run under TSan (tools/ci.sh
// filters on 'Explore*') to vouch for the concurrent bump paths.
#include "trace/trace.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "celllib/ncr_like.h"
#include "core/mfsa.h"
#include "explore/explore.h"
#include "rtl/verify.h"
#include "sched/verify.h"
#include "workloads/benchmarks.h"

namespace mframe::trace {
namespace {

/// Counters and the span buffer are process-global; every test starts from
/// a clean slate and switches instrumentation back off on exit so the rest
/// of the suite keeps its zero-overhead default.
struct ScopedInstrumentation {
  ScopedInstrumentation() {
    endTracing();
    enableCounters(true);
    resetCounters();
  }
  ~ScopedInstrumentation() {
    enableCounters(false);
    resetCounters();
    endTracing();
  }
};

TEST(Trace, DisabledBumpRecordsNothing) {
  ScopedInstrumentation scoped;
  enableCounters(false);
  bump(Counter::MfsaRuns);
  EXPECT_EQ(counterValue(Counter::MfsaRuns), 0u);
  enableCounters(true);
  bump(Counter::MfsaRuns, 3);
  bump(Counter::MfsaRuns);
  EXPECT_EQ(counterValue(Counter::MfsaRuns), 4u);
  resetCounters();
  EXPECT_EQ(counterValue(Counter::MfsaRuns), 0u);
}

TEST(Trace, CounterNamesAreUniqueAndDotted) {
  std::set<std::string_view> seen;
  for (int i = 0; i < kNumCounters; ++i) {
    const std::string_view name = counterName(static_cast<Counter>(i));
    EXPECT_NE(name, "?");
    EXPECT_NE(name.find('.'), std::string_view::npos) << name;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
}

TEST(Trace, MetricsJsonCarriesEveryCounterAndDerivedRates) {
  ScopedInstrumentation scoped;
  bump(Counter::MuxDeltaIncremental, 3);
  bump(Counter::MuxDeltaRebuilds, 1);
  const std::string j = metricsJson();
  // The marker line scripts grep for (tools/bench-json.sh, bench-compare.sh).
  EXPECT_EQ(j.rfind("{\"schema\": 1,", 0), 0u);
  for (const auto& [name, value] : counterSnapshot())
    EXPECT_NE(j.find("\"" + std::string(name) + "\":"), std::string::npos)
        << name;
  EXPECT_NE(j.find("\"mux.deltaIncrementalRate\": 0.750000"),
            std::string::npos) << j;
  EXPECT_EQ(j.find("memo"), std::string::npos) << j;  // removed, not zeroed
  EXPECT_NE(j.find("\"explore.feasibleRate\""), std::string::npos);
}

TEST(Trace, SpansSerializeAsChromeCompleteEvents) {
  ScopedInstrumentation scoped;
  beginTracing();
  { const Span s("unit-test-span"); }
  completeEvent("direct-event", nowUs(), "{\"k\": 1}");
  endTracing();
  const std::string j = traceJson();
  EXPECT_EQ(j.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(j.find("\"name\": \"unit-test-span\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(j.find("\"args\": {\"k\": 1}"), std::string::npos);
  // The metrics block rides along in the same file.
  EXPECT_NE(j.find("\"metrics\": {\"schema\": 1,"), std::string::npos);
}

TEST(Trace, DisabledSpanRecordsNothing) {
  ScopedInstrumentation scoped;
  beginTracing();
  endTracing();
  { const Span s("should-not-appear"); }
  completeEvent("nor-this", 0);
  EXPECT_EQ(traceJson().find("should-not-appear"), std::string::npos);
  EXPECT_EQ(traceJson().find("nor-this"), std::string::npos);
}

TEST(Trace, BeginTracingClearsThePreviousSession) {
  ScopedInstrumentation scoped;
  beginTracing();
  { const Span s("stale-span"); }
  beginTracing();
  { const Span s("fresh-span"); }
  endTracing();
  const std::string j = traceJson();
  EXPECT_EQ(j.find("stale-span"), std::string::npos);
  EXPECT_NE(j.find("fresh-span"), std::string::npos);
}

TEST(Trace, VerifiersRecordTheirSpans) {
  ScopedInstrumentation scoped;
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints.timeSteps = 4;
  const auto r = core::runMfsa(workloads::diffeq(), lib, o);
  ASSERT_TRUE(r.feasible) << r.error;
  beginTracing();
  EXPECT_TRUE(sched::verifySchedule(r.datapath.schedule, o.constraints).empty());
  EXPECT_TRUE(rtl::verifyDatapath(r.datapath, o.constraints, o.style).empty());
  endTracing();
  const std::string j = traceJson();
  EXPECT_NE(j.find("\"name\": \"verify.schedule\""), std::string::npos);
  EXPECT_NE(j.find("\"name\": \"verify.datapath\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism and differential contracts on real pipeline runs
// ---------------------------------------------------------------------------

explore::SweepSpec smallSpec() {
  explore::SweepSpec s = explore::SweepSpec::defaults();
  s.weights = {core::MfsaWeights{}};
  s.priorityRules = {sched::PriorityRule::Mobility};
  return s;
}

TEST(ExploreCounters, BitIdenticalAcrossJobCounts) {
  // The explorer's determinism contract extends to the counter registry:
  // every bump is a commutative sum over the same per-config work, so the
  // snapshot cannot depend on how items were dealt to threads.
  const celllib::CellLibrary lib = celllib::ncrLike();
  const dfg::Dfg g = workloads::diffeq();
  ScopedInstrumentation scoped;

  (void)explore::explore(g, lib, smallSpec(), 1);
  const auto one = counterSnapshot();
  resetCounters();
  (void)explore::explore(g, lib, smallSpec(), 8);
  const auto eight = counterSnapshot();

  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].second, eight[i].second) << one[i].first;
  }
  EXPECT_GT(counterValue(Counter::ExploreConfigs), 0u);
  EXPECT_GT(counterValue(Counter::MfsaCandidates), 0u);
  EXPECT_EQ(counterValue(Counter::ExploreConfigs),
            counterValue(Counter::MfsaRuns));
}

TEST(ExploreCounters, MuxDeltaCountersCoverEveryProbe) {
  const celllib::CellLibrary lib = celllib::ncrLike();
  const dfg::Dfg g = workloads::diffeq();
  ScopedInstrumentation scoped;

  core::MfsaOptions o;
  o.constraints.timeSteps = 4;
  ASSERT_TRUE(core::runMfsa(g, lib, o).feasible);
  // Every (ALU, op) probe prices its mux delta incrementally or through the
  // full-rebuild fallback.
  EXPECT_GT(counterValue(Counter::MuxDeltaIncremental) +
                counterValue(Counter::MuxDeltaRebuilds),
            0u);
}

}  // namespace
}  // namespace mframe::trace
