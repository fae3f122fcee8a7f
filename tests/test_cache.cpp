// The synthesis cache (src/cache/): fingerprint invariance, entry
// encode/replay fidelity, hit/miss/invalidation behavior of the cached
// entry points, incremental resynthesis, and the determinism of the
// cache.* counters across worker-thread counts.
#include "cache/resynth.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "cache/fingerprint.h"
#include "cache/store.h"
#include "celllib/ncr_like.h"
#include "explore/explore.h"
#include "dfg/builder.h"
#include "dfg/parser.h"
#include "sched/schedule_io.h"
#include "sched/verify.h"
#include "trace/trace.h"

namespace mframe::cache {
namespace {

constexpr const char* kDesign = R"(dfg tcache
input a
input b
input c
op mul t1 a b
op mul t2 b c
op add t3 t1 t2
op sub t4 t3 c
output out t4
)";

// Same dataflow with the operands of the commutative adder swapped.
constexpr const char* kDesignSwapped = R"(dfg tcache
input a
input b
input c
op mul t1 a b
op mul t2 b c
op add t3 t2 t1
op sub t4 t3 c
output out t4
)";

// One operation's kind edited (sub -> add): same signal names, new content.
constexpr const char* kDesignEdited = R"(dfg tcache
input a
input b
input c
op mul t1 a b
op mul t2 b c
op add t3 t1 t2
op add t4 t3 c
output out t4
)";

std::string freshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "mframe_cache_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Installs a cache + enables counters for the scope of one test.
struct CacheSession {
  SynthCache store;
  explicit CacheSession(const std::string& tag) : store(freshDir(tag)) {
    trace::enableCounters(true);
    trace::resetCounters();
    setActiveCache(&store);
  }
  ~CacheSession() {
    setActiveCache(nullptr);
    trace::enableCounters(false);
  }
};

std::uint64_t count(trace::Counter c) { return trace::counterValue(c); }

core::MfsOptions mfsOpt(int steps = 4) {
  core::MfsOptions o;
  o.constraints.timeSteps = steps;
  return o;
}

core::MfsaOptions mfsaOpt(int steps = 4) {
  core::MfsaOptions o;
  o.constraints.timeSteps = steps;
  return o;
}

TEST(CacheFingerprint, CommutativeOperandSwapIsInvariant) {
  const dfg::Dfg a = dfg::parse(kDesign);
  const dfg::Dfg b = dfg::parse(kDesignSwapped);
  EXPECT_EQ(fingerprintDfg(a), fingerprintDfg(b));
}

TEST(CacheFingerprint, ContentChangesTheDigest) {
  const dfg::Dfg a = dfg::parse(kDesign);
  const dfg::Dfg b = dfg::parse(kDesignEdited);
  EXPECT_NE(fingerprintDfg(a), fingerprintDfg(b));

  dfg::Builder edit(a);
  edit.setCycles(a.findByName("t1"), 2);
  const dfg::Dfg c = std::move(edit).build();
  EXPECT_NE(fingerprintDfg(a), fingerprintDfg(c));
}

TEST(CacheFingerprint, EnvTextCoversTheOptions) {
  const auto base = mfsEnvText(mfsOpt(4));
  EXPECT_EQ(base, mfsEnvText(mfsOpt(4)));  // deterministic
  EXPECT_NE(base, mfsEnvText(mfsOpt(5)));

  core::MfsOptions chained = mfsOpt(4);
  chained.constraints.allowChaining = true;
  EXPECT_NE(base, mfsEnvText(chained));

  const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions ma = mfsaOpt(4);
  const auto mbase = mfsaEnvText(ma, lib);
  ma.weights.mux = 2.0;
  EXPECT_NE(mbase, mfsaEnvText(ma, lib));
  // A different library changes the env even with identical options.
  EXPECT_NE(mbase, mfsaEnvText(mfsaOpt(4), celllib::ncrLike({.scale = 2.0})));
}

// The authoritative keys are the field-hashed digests; they must track the
// same option changes the debug texts render.
TEST(CacheFingerprint, EnvDigestCoversTheOptions) {
  const Digest base = mfsEnvDigest(mfsOpt(4));
  EXPECT_EQ(base, mfsEnvDigest(mfsOpt(4)));  // deterministic
  EXPECT_NE(base, mfsEnvDigest(mfsOpt(5)));

  core::MfsOptions chained = mfsOpt(4);
  chained.constraints.allowChaining = true;
  EXPECT_NE(base, mfsEnvDigest(chained));

  core::MfsOptions trace = mfsOpt(4);
  trace.traceLiapunov = true;  // result-neutral: must share the key
  EXPECT_EQ(base, mfsEnvDigest(trace));

  const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions ma = mfsaOpt(4);
  const Digest mbase = mfsaEnvDigest(ma, lib);
  ma.weights.mux = 2.0;
  EXPECT_NE(mbase, mfsaEnvDigest(ma, lib));
  EXPECT_NE(mbase, mfsaEnvDigest(mfsaOpt(4), celllib::ncrLike({.scale = 2.0})));
}

TEST(CacheStore, RoundTripAndInvalidate) {
  SynthCache c(freshDir("store"));
  EXPECT_FALSE(c.load("mfs", 1, 2).has_value());
  EXPECT_TRUE(c.store("mfs", 1, 2, 3, "payload\n"));
  ASSERT_TRUE(c.load("mfs", 1, 2).has_value());
  EXPECT_EQ(*c.load("mfs", 1, 2), "payload\n");
  // The latest-index is keyed by the *name* digest, not the content digest.
  ASSERT_TRUE(c.loadLatest("mfs", 3, 2).has_value());
  EXPECT_EQ(*c.loadLatest("mfs", 3, 2), "payload\n");
  EXPECT_TRUE(c.store("mfs", 9, 2, 3, "newer\n"));
  EXPECT_EQ(*c.loadLatest("mfs", 3, 2), "newer\n");  // latest wins
  c.invalidate("mfs", 1, 2);
  EXPECT_FALSE(c.load("mfs", 1, 2).has_value());
}

TEST(CacheReplay, MfsEntryRoundTripsTheResult) {
  const dfg::Dfg g = dfg::parse(kDesign);
  const auto opt = mfsOpt(4);
  const core::MfsResult cold = core::runMfs(g, opt);
  ASSERT_TRUE(cold.feasible);
  const std::string entry = encodeMfsEntry(g, cold, mfsEnvText(opt));
  const auto warm = replayMfsEntry(g, opt, entry);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(sched::serializeSchedule(warm->schedule),
            sched::serializeSchedule(cold.schedule));
  EXPECT_EQ(warm->steps, cold.steps);
  EXPECT_EQ(warm->restarts, cold.restarts);
  EXPECT_EQ(warm->fuCount, cold.fuCount);
}

TEST(CacheReplay, CorruptEntriesAreRejected) {
  const dfg::Dfg g = dfg::parse(kDesign);
  const auto opt = mfsOpt(4);
  EXPECT_FALSE(replayMfsEntry(g, opt, "not an entry").has_value());
  EXPECT_FALSE(replayMfsEntry(g, opt, "mframe-cache 1 kind=mfs design=x\n")
                   .has_value());
  // A structurally valid entry for a *different* graph must not replay:
  // the placements name signals the live graph doesn't have.
  const dfg::Dfg other = dfg::parse(
      "dfg other\ninput p\nop inc q p\noutput out q\n");
  const core::MfsResult r = core::runMfs(other, mfsOpt(2));
  ASSERT_TRUE(r.feasible);
  const std::string entry = encodeMfsEntry(other, r, mfsEnvText(mfsOpt(2)));
  EXPECT_FALSE(replayMfsEntry(g, opt, entry).has_value());
}

TEST(CacheRun, MfsHitReproducesTheColdResultBitForBit) {
  CacheSession s("mfs_hit");
  const dfg::Dfg g = dfg::parse(kDesign);
  const auto opt = mfsOpt(4);

  const core::MfsResult cold = cachedRunMfs(g, opt);
  ASSERT_TRUE(cold.feasible);
  EXPECT_EQ(count(trace::Counter::CacheMisses), 1u);
  EXPECT_EQ(count(trace::Counter::CacheStores), 1u);
  EXPECT_EQ(count(trace::Counter::CacheHits), 0u);

  const core::MfsResult warm = cachedRunMfs(g, opt);
  ASSERT_TRUE(warm.feasible);
  EXPECT_EQ(count(trace::Counter::CacheHits), 1u);
  EXPECT_EQ(count(trace::Counter::CacheMisses), 1u);
  EXPECT_EQ(sched::serializeSchedule(warm.schedule),
            sched::serializeSchedule(cold.schedule));
  EXPECT_EQ(warm.fuCount, cold.fuCount);
  EXPECT_EQ(warm.steps, cold.steps);
  EXPECT_EQ(warm.restarts, cold.restarts);

  // The commutative-swap variant hits the same entry.
  const core::MfsResult swapped = cachedRunMfs(dfg::parse(kDesignSwapped), opt);
  ASSERT_TRUE(swapped.feasible);
  EXPECT_EQ(count(trace::Counter::CacheHits), 2u);
}

TEST(CacheRun, MfsaHitReproducesTheColdResultBitForBit) {
  CacheSession s("mfsa_hit");
  const dfg::Dfg g = dfg::parse(kDesign);
  const celllib::CellLibrary lib = celllib::ncrLike();
  const auto opt = mfsaOpt(4);

  const core::MfsaResult cold = cachedRunMfsa(g, lib, opt);
  ASSERT_TRUE(cold.feasible);
  const core::MfsaResult warm = cachedRunMfsa(g, lib, opt);
  ASSERT_TRUE(warm.feasible);
  EXPECT_EQ(count(trace::Counter::CacheHits), 1u);

  EXPECT_EQ(sched::serializeSchedule(warm.datapath.schedule),
            sched::serializeSchedule(cold.datapath.schedule));
  EXPECT_EQ(warm.datapath.aluSummary(), cold.datapath.aluSummary());
  EXPECT_EQ(warm.cost.toString(), cold.cost.toString());
  EXPECT_EQ(warm.steps, cold.steps);
  EXPECT_EQ(warm.restarts, cold.restarts);
  EXPECT_EQ(warm.datapath.regs.registers.size(),
            cold.datapath.regs.registers.size());
}

TEST(CacheRun, DifferentOptionsMissSeparately) {
  CacheSession s("env_split");
  const dfg::Dfg g = dfg::parse(kDesign);
  ASSERT_TRUE(cachedRunMfs(g, mfsOpt(4)).feasible);
  ASSERT_TRUE(cachedRunMfs(g, mfsOpt(5)).feasible);
  EXPECT_EQ(count(trace::Counter::CacheHits), 0u);
  EXPECT_EQ(count(trace::Counter::CacheMisses), 2u);
  ASSERT_TRUE(cachedRunMfs(g, mfsOpt(4)).feasible);
  EXPECT_EQ(count(trace::Counter::CacheHits), 1u);
}

TEST(CacheRun, CorruptEntryIsInvalidatedAndResynthesized) {
  CacheSession s("invalidate");
  const dfg::Dfg g = dfg::parse(kDesign);
  const auto opt = mfsOpt(4);
  // Plant garbage at exactly the key the lookup computes.
  const Digest d = fingerprintDfg(g);
  const Digest e = mfsEnvDigest(opt);
  ASSERT_TRUE(s.store.store("mfs", d, e, digestOf(g.name()), "garbage\n"));

  const core::MfsResult r = cachedRunMfs(g, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(count(trace::Counter::CacheInvalidations), 1u);
  EXPECT_EQ(count(trace::Counter::CacheMisses), 1u);
  EXPECT_EQ(count(trace::Counter::CacheHits), 0u);
  // The bad entry was replaced; the next run hits.
  ASSERT_TRUE(cachedRunMfs(g, opt).feasible);
  EXPECT_EQ(count(trace::Counter::CacheHits), 1u);
}

TEST(CacheRun, SmallEditResynthesizesIncrementally) {
  CacheSession s("incremental");
  const auto opt = mfsOpt(4);
  ASSERT_TRUE(cachedRunMfs(dfg::parse(kDesign), opt).feasible);
  EXPECT_EQ(count(trace::Counter::CacheIncrementalHits), 0u);

  // Same design name, one operation's kind edited: a full miss, resolved by
  // re-scheduling only the cone around the changed op.
  const dfg::Dfg edited = dfg::parse(kDesignEdited);
  const core::MfsResult r = cachedRunMfs(edited, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(count(trace::Counter::CacheIncrementalHits), 1u);
  EXPECT_EQ(count(trace::Counter::CacheMisses), 2u);
  EXPECT_TRUE(sched::verifySchedule(r.schedule, opt.constraints).empty());
  // The incremental result was stored: re-running the edited design hits.
  ASSERT_TRUE(cachedRunMfs(edited, opt).feasible);
  EXPECT_EQ(count(trace::Counter::CacheHits), 1u);
}

TEST(CacheRun, NoActiveCacheIsAPassThrough) {
  trace::enableCounters(true);
  trace::resetCounters();
  setActiveCache(nullptr);
  const core::MfsResult r = cachedRunMfs(dfg::parse(kDesign), mfsOpt(4));
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(count(trace::Counter::CacheMisses), 0u);
  EXPECT_EQ(count(trace::Counter::CacheStores), 0u);
  trace::enableCounters(false);
}

// The explorer routes every candidate through the cache; the cache.*
// counters — like every other counter — must be bit-identical across
// worker-thread counts, and a warm sweep must replay all candidates.
TEST(CacheRun, ExploreCountersAreJobCountInvariant) {
  const dfg::Dfg g = dfg::parse(kDesign);
  const celllib::CellLibrary lib = celllib::ncrLike();
  explore::SweepSpec spec = explore::SweepSpec::defaults();
  spec.steps = {4, 5};  // trim the sweep; two budgets exercise enough

  std::string json1, json8;
  std::uint64_t misses1 = 0, misses8 = 0, stores1 = 0, stores8 = 0;
  {
    CacheSession s("explore_j1");
    json1 = explore::toJson(explore::explore(g, lib, spec, 1));
    misses1 = count(trace::Counter::CacheMisses);
    stores1 = count(trace::Counter::CacheStores);
    EXPECT_EQ(count(trace::Counter::CacheHits), 0u);
  }
  {
    CacheSession s("explore_j8");
    json8 = explore::toJson(explore::explore(g, lib, spec, 8));
    misses8 = count(trace::Counter::CacheMisses);
    stores8 = count(trace::Counter::CacheStores);

    EXPECT_EQ(misses1, misses8);
    EXPECT_EQ(stores1, stores8);
    EXPECT_EQ(json1, json8);

    // Warm sweep on the jobs=8 cache: every feasible candidate replays, and
    // the JSON (costs, restarts, frontier) is byte-identical to cold.
    trace::resetCounters();
    const std::string warm = explore::toJson(explore::explore(g, lib, spec, 8));
    EXPECT_EQ(warm, json8);
    EXPECT_EQ(count(trace::Counter::CacheHits), stores8);
    EXPECT_EQ(count(trace::Counter::CacheStores), 0u);
  }
}

}  // namespace
}  // namespace mframe::cache
