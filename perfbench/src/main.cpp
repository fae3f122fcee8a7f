// perfbench: the end-to-end benchmark of libmframe.
//
//   perfbench --workload <paper_signoff|nn_synth|iterate> --seed <n>
//             --seconds <s> --trace <0|1> --root <checkout> --workdir <dir>
//             [--commit <id>]
//
// Untraced (--trace 0), the workload is set up, then run pass after pass for
// about --seconds, with more set-ups timed between the passes (setup_s is
// the median), and the end-to-end metrics are reported. Traced (--trace 1),
// untraced passes are followed by traced ones; the per-layer metrics come
// from the traced passes and the trace is written as Chrome trace-event
// JSON. The last line of standard output is the result object.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <thread>

#include "trace/trace.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

namespace perfbench {
namespace {

using mframe::trace::Counter;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string root;
  std::string workDir;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --root <dir> --workdir <dir> "
               "[--commit <id>]\n",
               why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveSeed = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      const auto [p, ec] =
          std::from_chars(val.data(), val.data() + val.size(), a.seed);
      if (ec != std::errc() || p != val.data() + val.size())
        usage("bad --seed '" + val + "'");
      haveSeed = true;
    } else if (key == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 120)
        usage("bad --seconds '" + val + "' (0 < s <= 120)");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("bad --trace '" + val + "'");
      a.trace = val == "1";
      haveTrace = true;
    } else if (key == "--root") {
      a.root = val;
    } else if (key == "--workdir") {
      a.workDir = val;
    } else if (key == "--commit") {
      a.commit = val;
    } else {
      usage("unknown option " + key);
    }
  }
  if (a.workload.empty() || !haveSeed || a.seconds <= 0 || !haveTrace ||
      a.root.empty() || a.workDir.empty())
    usage("--workload, --seed, --seconds, --trace, --root and --workdir are "
          "required");
  return a;
}

/// Timings from an unoptimized or instrumented build are not reported.
std::string buildRefusal() {
#ifndef NDEBUG
  return "assertions are enabled (a Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the benchmark is built with a sanitizer";
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo" && type != "MinSizeRel")
    return "build type '" + type + "' is not an optimized build";
  if (std::strlen(PERFBENCH_SANITIZE) > 0)
    return std::string("the build is instrumented ('") + PERFBENCH_SANITIZE +
           "')";
  return "";
}

/// Linear-interpolation percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Share of the untraced passes' time spent setting the workload up again,
/// in blocks of at least kSetupBlockS.
constexpr double kSetupShare = 0.1;
constexpr double kSetupBlockS = 0.05;

/// Times set-ups of one workload; setup_s is the median. Besides the
/// instance the run uses, throwaway instances (with a work directory of
/// their own) are set up between the passes, so the samples span the same
/// stretch of the run, and the same host conditions, as the passes do.
class SetupTimer {
 public:
  SetupTimer(std::string name, WorkloadConfig cfg)
      : name_(std::move(name)), spare_(std::move(cfg)) {
    spare_.workDir += "/setup";
  }

  std::unique_ptr<Workload> setUp(const WorkloadConfig& cfg) {
    const auto t0 = Clock::now();
    std::unique_ptr<Workload> w = makeWorkload(name_, cfg);
    times_.push_back(secondsSince(t0));
    return w;
  }

  /// Owe `seconds` more of set-up time. Once a block is owed, set up
  /// throwaway instances for that long (at least once); each is destroyed
  /// outside the timing.
  void owe(double seconds) {
    owed_ += seconds;
    if (owed_ < kSetupBlockS) return;
    const auto start = Clock::now();
    do {
      setUp(spare_).reset();
    } while (secondsSince(start) < owed_);
    owed_ = 0;
  }

  double medianS() const { return median(times_); }

 private:
  std::string name_;
  WorkloadConfig spare_;
  std::vector<double> times_;
  double owed_ = 0;
};

/// Run passes until about `budgetS` seconds are used: stop before a pass
/// that would likely overrun, once `minPasses` have run. `afterPass` runs
/// after each pass (outside its timing, inside the budget) with the pass's
/// wall time.
std::vector<PassStats> runPasses(
    Workload& w, Recorder& rec, double budgetS, std::size_t minPasses,
    std::size_t maxPasses = 1u << 20,
    const std::function<void(double)>& afterPass = {}) {
  std::vector<PassStats> out;
  std::vector<double> rounds;
  const auto t0 = Clock::now();
  while (out.size() < maxPasses) {
    const auto r0 = Clock::now();
    out.push_back(w.pass(rec));
    if (afterPass) afterPass(out.back().wallS);
    rounds.push_back(secondsSince(r0));
    const double used = secondsSince(t0);
    if (out.size() >= minPasses && used + median(rounds) > budgetS) break;
  }
  return out;
}

/// Correctness verdict over a run's passes: every gate clean and every
/// pass producing the same outputs and QoR.
std::vector<std::string> violationsOf(const std::vector<PassStats>& passes) {
  std::vector<std::string> v;
  for (const PassStats& p : passes) {
    v.insert(v.end(), p.violations.begin(), p.violations.end());
    if (p.digest.digest() != passes.front().digest.digest() ||
        p.qorArea != passes.front().qorArea ||
        p.qorSteps != passes.front().qorSteps ||
        p.tuneSlackNs != passes.front().tuneSlackNs)
      v.push_back("outputs or QoR differ between passes of one run");
  }
  return v;
}

const char* const kLayers[] = {
    "dfg.parse",         "lang.compile",     "analysis.lint",
    "sched.timeframes",  "core.mfs",         "sched.verify",
    "core.mfsa",         "rtl.verify",       "rtl.controller",
    "rtl.microcode",     "rtl.render",       "analysis.validate",
    "analysis.audit",    "analysis.range",   "analysis.timing",
    "sim",               "cache",            "cache.fingerprint",
    "explore",           "tune",             "analysis.criticality",
};

/// Layers whose scaling exponent nn_synth measures (10x fewer ops).
const char* const kScaledLayers[] = {
    "dfg.parse",  "analysis.lint", "sched.timeframes", "core.mfs",
    "sched.verify", "core.mfsa",   "rtl.verify",       "rtl.controller",
    "rtl.microcode", "rtl.render",
};

std::uint64_t counter(const std::map<std::string, LayerTotals>& t, Counter c) {
  std::uint64_t sum = 0;
  for (const auto& [name, lt] : t)
    if (name != "request") sum += lt.counters[static_cast<std::size_t>(c)];
  return sum;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> layerMetrics(const std::map<std::string, LayerTotals>& t,
                                 double passes) {
  std::vector<Metric> m;
  auto busy = [&](const char* layer) {
    const auto it = t.find(layer);
    return it == t.end() ? 0.0 : it->second.busyS / passes;
  };
  for (const char* layer : kLayers) {
    const auto it = t.find(layer);
    m.push_back({std::string(layer) + ".busy_s", busy(layer), "s"});
    m.push_back({std::string(layer) + ".self_s",
                 it == t.end() ? 0.0 : it->second.selfS / passes, "s"});
  }
  auto count = [&](Counter c) { return static_cast<double>(counter(t, c)); };
  double mfsOps = 0;
  double mfsaOpRuns = 0;
  for (const auto& [name, lt] : t)
    if (name != "request") {
      mfsOps += lt.mfsOps;
      mfsaOpRuns += lt.mfsaOpRuns;
    }
  m.push_back({"core.mfs.cell_evals_per_op",
               ratio(count(Counter::LiapunovCellEvals), mfsOps), "count"});
  m.push_back({"core.mfsa.commits_per_op",
               ratio(count(Counter::MfsaCommits), mfsaOpRuns), "count"});
  m.push_back({"core.mfsa.candidates_per_op",
               ratio(count(Counter::MfsaCandidates), mfsaOpRuns), "count"});
  m.push_back({"core.mfsa.restarts", count(Counter::MfsaRestarts) / passes,
               "count"});
  m.push_back({"alloc.mux.delta_incremental_rate",
               ratio(count(Counter::MuxDeltaIncremental),
                     count(Counter::MuxDeltaIncremental) +
                         count(Counter::MuxDeltaRebuilds)),
               "ratio"});
  m.push_back({"cache.hit_ratio",
               ratio(count(Counter::CacheHits),
                     count(Counter::CacheHits) + count(Counter::CacheMisses)),
               "ratio"});
  m.push_back({"cache.stores", count(Counter::CacheStores) / passes, "count"});
  m.push_back({"cache.invalidations",
               count(Counter::CacheInvalidations) / passes, "count"});
  m.push_back({"cache.incremental_hits",
               count(Counter::CacheIncrementalHits) / passes, "count"});
  m.push_back({"explore.configs_per_s",
               ratio(count(Counter::ExploreConfigs) / passes, busy("explore")),
               "1/s"});
  m.push_back({"explore.feasible_ratio",
               ratio(count(Counter::ExploreFeasible),
                     count(Counter::ExploreConfigs)),
               "ratio"});
  m.push_back({"tune.iterations", count(Counter::TuneIterations) / passes,
               "count"});
  m.push_back({"tune.rejected_stitch_ratio",
               ratio(count(Counter::TuneRejectedStitches),
                     count(Counter::TuneRejectedStitches) +
                         count(Counter::TuneStitches)),
               "ratio"});
  return m;
}

void printResult(bool correct, long attempted, long failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-40s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(const Args& a) {
  const int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  WorkloadConfig cfg;
  cfg.seed = a.seed;
  cfg.root = a.root;
  cfg.workDir = a.workDir + "/" + a.workload + "-" + std::to_string(a.seed);
  cfg.jobs = std::min(nproc, 4);
  std::filesystem::create_directories(cfg.workDir);

  const bool nn = a.workload == "nn_synth";
  SetupTimer setup(a.workload, cfg);
  const std::unique_ptr<Workload> workload = setup.setUp(cfg);
  Workload& w = *workload;
  Recorder rec;

  std::vector<PassStats> passes;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;
  if (!a.trace) {
    passes = runPasses(w, rec, a.seconds, 3, 1u << 20, [&](double passS) {
      setup.owe(kSetupShare * passS);
    });
    violations = violationsOf(passes);
    std::vector<double> walls;
    std::vector<double> summed;
    std::vector<double> cold;
    std::vector<double> warm;
    std::vector<double> tune;
    for (const PassStats& p : passes) {
      walls.push_back(p.wallS);
      summed.push_back(
          std::accumulate(p.requestS.begin(), p.requestS.end(), 0.0));
      cold.push_back(p.sweepColdS);
      warm.push_back(p.sweepWarmS);
      tune.push_back(p.tuneS);
    }
    // Each request's latency is its median over the passes (every pass
    // sends the same list), so one slow pass cannot move the percentiles.
    std::vector<double> requestsMs;
    for (std::size_t r = 0; r < passes.front().requestS.size(); ++r) {
      std::vector<double> samples;
      for (const PassStats& p : passes) samples.push_back(p.requestS[r] * 1e3);
      requestsMs.push_back(median(samples));
    }
    // Workloads without a cache sweep or tune step report their whole pass
    // as the sweep, and the summed time of their requests to a verdict.
    const bool phases = passes.front().sweepColdS >= 0;
    metrics = {
        {"wall_s", median(walls), "s"},
        {"request_p50_ms", percentile(requestsMs, 0.5), "ms"},
        {"request_p90_ms", percentile(requestsMs, 0.9), "ms"},
        {"sweep_cold_s", median(phases ? cold : walls), "s"},
        {"sweep_warm_s", median(phases ? warm : walls), "s"},
        {"tune_s", phases ? median(tune) : median(summed), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", setup.medianS(), "s"},
        {"qor_area", passes.front().qorArea, "area"},
        {"qor_steps", passes.front().qorSteps, "steps"},
    };
  } else {
    const auto untraced = runPasses(w, rec, 0.4 * a.seconds, 1);
    rec.startTracing();
    const std::size_t mark = rec.mark();
    // A paper_signoff pass records ~300 spans; cap the traced passes so
    // the in-memory trace stays small.
    passes = runPasses(w, rec, 0.4 * a.seconds, 1, 200);
    rec.stopTracing();
    const double n = static_cast<double>(passes.size());
    const auto full = rec.totals(mark, passes.front().failedPositions);
    // Every pass of the run, untraced and traced, goes through the gate and
    // must match the same digest and QoR.
    std::vector<PassStats> all = untraced;
    all.insert(all.end(), passes.begin(), passes.end());
    violations = violationsOf(all);
    metrics = layerMetrics(rec.totals(mark), n);

    std::vector<double> untracedWalls;
    std::vector<double> tracedWalls;
    for (const PassStats& p : untraced) untracedWalls.push_back(p.wallS);
    for (const PassStats& p : passes) tracedWalls.push_back(p.wallS);
    metrics.push_back({"trace.overhead_ratio",
                       median(tracedWalls) / median(untracedWalls), "ratio"});
    metrics.push_back({"trace.coverage", rec.coverage(mark), "ratio"});

    // Scaling exponents: the same layers on graphs with 10x fewer ops.
    // Requests that failed at full size are left out at both sizes.
    std::map<std::string, double> exponent;
    if (nn) {
      WorkloadConfig small = cfg;
      small.scaleDivisor = 10;
      const auto tenth = makeWorkload(a.workload, small);
      rec.startTracing();
      const std::size_t smallMark = rec.mark();
      const auto smallPasses = runPasses(*tenth, rec, 0, 3, 3);
      rec.stopTracing();
      const auto reduced =
          rec.totals(smallMark, passes.front().failedPositions);
      for (const char* layer : kScaledLayers) {
        const auto f = full.find(layer);
        const auto s = reduced.find(layer);
        if (f != full.end() && s != reduced.end() && s->second.busyS > 0)
          exponent[layer] = std::log10((f->second.busyS / n) /
                                       (s->second.busyS / 3.0));
      }
      const auto smallViolations = violationsOf(smallPasses);
      violations.insert(violations.end(), smallViolations.begin(),
                        smallViolations.end());
    }
    for (const char* layer : kScaledLayers)
      metrics.push_back({std::string(layer) + ".exponent",
                         exponent.count(layer) ? exponent[layer] : 0.0,
                         "exponent"});

    metrics.push_back({"qor_tune_slack_ns", passes.front().tuneSlackNs, "ns"});

    const std::string tracePath = cfg.workDir + "/trace.json";
    std::ofstream(tracePath) << rec.chromeJson();
    std::printf("trace written to %s\n", tracePath.c_str());
  }

  w.finalGate(violations);
  long attempted = 0;
  long failed = 0;
  for (const PassStats& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
  }
  if (a.trace)
    metrics.push_back({"fail_ratio", ratio(failed, attempted), "ratio"});
  std::printf("host {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
              "\"jobs\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"commit\": \"%s\", \"passes\": %zu, \"digest\": \"%016llx\"}\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              nproc, cfg.jobs, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              a.commit.c_str(), passes.size(),
              static_cast<unsigned long long>(passes.front().digest.digest()));
  for (const std::string& v : violations)
    std::printf("correctness violation: %s\n", v.c_str());
  std::printf("verdict: %s; %ld of %ld requests failed\n",
              violations.empty() ? "correct" : "INCORRECT", failed, attempted);
  printResult(violations.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parseArgs(argc, argv);
  const std::string refusal = perfbench::buildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report timings: %s\n",
                 refusal.c_str());
    return 3;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
