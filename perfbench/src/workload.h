// The benchmark's workloads and the helpers they share.
//
// A workload is set up once from the seed (inputs generated and serialized
// to design text), then run as passes: one pass sends every request of the
// workload's list, one after another, from a single client (a closed loop).
// Every request starts from design text, so parsing is part of it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/fingerprint.h"
#include "dfg/dfg.h"
#include "recorder.h"
#include "rtl/controller.h"
#include "rtl/datapath.h"
#include "sched/schedule.h"
#include "sim/eval.h"

namespace perfbench {

/// Deterministic 64-bit mixer for deriving sub-seeds from the run's seed.
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

struct DesignText {
  std::string name;
  std::string text;
  bool behavioral = false;  ///< .mfb source (lang.compile) vs .dfg (dfg.parse)
  std::size_t ops = 0;      ///< operation count, for the per-op counters
};

/// Serialize a generated graph to .dfg text, the form requests start from.
DesignText designText(const mframe::dfg::Dfg& g);

/// Seeded 16-bit values for every primary input of `g`.
std::map<std::string, mframe::sim::Word> simInputs(const mframe::dfg::Dfg& g,
                                                   std::uint64_t seed);

/// What one pass measured and produced.
struct PassStats {
  double wallS = 0;
  std::vector<double> requestS;     ///< latency of each request, in order
  std::vector<int> failedPositions; ///< requests that produced no result
  int attempted = 0;
  int failed = 0;
  /// Digest of the pass's outputs; equal across passes (and across explore
  /// job counts) as part of the correctness gate.
  mframe::cache::Fnv1a digest;
  double qorArea = 0;     ///< sum of MFSA cost.total
  double qorSteps = 0;    ///< sum of achieved control steps
  double tuneSlackNs = 0; ///< sum of final worst slack after tune
  /// Phase times of the iterate workload (negative where absent).
  double sweepColdS = -1;
  double sweepWarmS = -1;
  double tuneS = -1;
  std::vector<std::string> violations;  ///< correctness-gate failures

  void expect(bool ok, const std::string& what) {
    if (!ok && violations.size() < 20) violations.push_back(what);
  }
};

/// Time one request of a pass. `f` returns false when the request produced
/// no result (counted as failed); an exception is a failure and a gate
/// violation.
template <class F>
void runRequest(Recorder& rec, PassStats& st, const std::string& label,
                F&& f) {
  const int position = st.attempted++;
  bool ok = false;
  rec.beginRequest(position);
  const auto t0 = Clock::now();
  try {
    ok = f();
  } catch (const std::exception& e) {
    st.expect(false, label + ": " + e.what());
  }
  st.requestS.push_back(secondsSince(t0));
  rec.endRequest();
  if (!ok) {
    ++st.failed;
    st.failedPositions.push_back(position);
  }
}

struct WorkloadConfig {
  std::uint64_t seed = 1;
  std::string root;     ///< checkout root (designs are read from tools/)
  std::string workDir;  ///< scratch space for caches and traces
  int jobs = 1;         ///< worker threads for explore and tune
  int scaleDivisor = 1; ///< nn_synth graphs are divided by this
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Run every request of the list once.
  virtual PassStats pass(Recorder& rec) = 0;
  /// Checks made once after the timed passes, outside every timing.
  virtual void finalGate(std::vector<std::string>& /*violations*/) {}
};

/// Set the named workload up from `cfg` (this is what setup_s times).
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const WorkloadConfig& cfg);

std::unique_ptr<Workload> makePaperSignoff(const WorkloadConfig& cfg);
std::unique_ptr<Workload> makeNnSynth(const WorkloadConfig& cfg);
std::unique_ptr<Workload> makeIterate(const WorkloadConfig& cfg);

// ---- layer calls shared by the workloads ---------------------------------

/// dfg.parse (.dfg text) or lang.compile (.mfb source).
mframe::dfg::Dfg loadDesign(Recorder& rec, const DesignText& d);

/// analysis.lint: true when the DFG lint reports no error.
bool lintClean(Recorder& rec, const mframe::dfg::Dfg& g);

/// sched.timeframes: the critical path under `c` (chaining and clock taken
/// from it), or -1 when the frames cannot be computed.
int criticalSteps(Recorder& rec, const mframe::dfg::Dfg& g,
                  const mframe::sched::Constraints& c);

/// rtl.render: Verilog of the design plus the schedule text.
std::string render(Recorder& rec, const mframe::rtl::Datapath& d,
                   const mframe::rtl::ControllerFsm& fsm);

/// Digest of a schedule's placements (cheaper than rendering it).
void addSchedule(mframe::cache::Fnv1a& dg, const mframe::sched::Schedule& s);

/// sim: RTL simulation against evalDfg; records a violation on mismatch.
void simulateAndCompare(Recorder& rec, PassStats& st,
                        const mframe::dfg::Dfg& g,
                        const mframe::rtl::Datapath& d,
                        const mframe::rtl::ControllerFsm& fsm,
                        const std::map<std::string, mframe::sim::Word>& in);

}  // namespace perfbench
