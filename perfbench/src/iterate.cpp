// iterate: design iteration through a disk cache, the feedback loop that
// dominates day-to-day HLS use. Each pass, in a fresh cache directory:
//
//  1. the default 96-configuration explore sweep over a 1000-op layered
//     graph — cold (misses and stores), then three times warm, each from a
//     new cache handle on the filled directory (disk reads and
//     replay-verify), and again from the last handle (the in-process memo)
//     with one job;
//  2. a time-constrained MFS of the graph through the cache, then of a copy
//     with one seeded operation edited, which takes the incremental cone
//     path;
//  3. tuneDesign on the six paper cases at 200 ns with budget 4, and on
//     slowchain.dfg at 40 ns, each checked afterwards (verify, prove, STA,
//     criticality) — the verdict includes that check.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/criticality/tune.h"
#include "analysis/validate/validate.h"
#include "cache/fingerprint.h"
#include "cache/resynth.h"
#include "cache/store.h"
#include "celllib/ncr_like.h"
#include "explore/explore.h"
#include "rtl/microcode.h"
#include "sched/verify.h"
#include "workload.h"
#include "workloads/benchmarks.h"
#include "workloads/random_dfg.h"

namespace perfbench {

using namespace mframe;
namespace fs = std::filesystem;

namespace {

/// Warm sweeps per pass; sweep_warm_s is their median.
constexpr int kWarmSweeps = 3;

struct TuneRequest {
  DesignText design;
  double clockNs;
  int budget;
};

/// Swap the two operands of the `pick`-th `sub` operation with distinct
/// operands in .dfg text: one edited operation with the same FU type and the
/// same dependences, which changes the design's fingerprint (subtraction
/// does not commute).
std::string editOneOp(const std::string& text, std::uint64_t pick) {
  struct Line {
    std::size_t begin, end;
    std::vector<std::string> tokens;  // op sub <name> <lhs> <rhs> [attrs]
  };
  std::vector<Line> subs;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    if (text.compare(pos, 7, "op sub ") == 0) {
      std::istringstream in(text.substr(pos, eol - pos));
      Line l{pos, eol, {}};
      for (std::string t; in >> t;) l.tokens.push_back(t);
      if (l.tokens.size() >= 5 && l.tokens[3] != l.tokens[4])
        subs.push_back(std::move(l));
    }
    pos = eol + 1;
  }
  if (subs.empty())
    throw std::runtime_error("edit: the graph has no sub with two operands");
  Line& l = subs[pick % subs.size()];
  std::swap(l.tokens[3], l.tokens[4]);
  std::string line;
  for (const std::string& t : l.tokens) line += (line.empty() ? "" : " ") + t;
  return text.substr(0, l.begin) + line + text.substr(l.end);
}

class Iterate final : public Workload {
 public:
  explicit Iterate(const WorkloadConfig& cfg)
      : lib_(celllib::ncrLike()),
        jobs_(cfg.jobs),
        dir_(cfg.workDir + "/iterate-cache") {
    // The design under iteration is one fixed graph (`mframe explore
    // random:layered,ops=1000`); the run's seed picks the edit. With the
    // graph drawn from the seed, the cold sweep ranged from 1.8 s to 3.5 s
    // over five seeds, more than any bound a regression gate can use.
    workloads::RandomDfgOptions o;
    o.numOps = 1000;
    o.numInputs = 8;
    o.layerWidth = 32;
    o.seed = 1;
    const dfg::Dfg g = workloads::randomDfg(o);
    base_ = designText(g);
    edited_ = base_;
    edited_.text = editOneOp(base_.text, mixSeed(cfg.seed, 0));

    for (const workloads::BenchmarkCase& bc : workloads::paperSuite())
      tunes_.push_back({designText(bc.graph), 200.0, 4});
    const std::string path = cfg.root + "/tools/designs/slowchain.dfg";
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::stringstream text;
    text << in.rdbuf();
    tunes_.push_back({{"slowchain", text.str(), false, 3}, 40.0, 8});

    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  ~Iterate() override {
    cache::setActiveCache(nullptr);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Iterate(const Iterate&) = delete;
  Iterate& operator=(const Iterate&) = delete;

  PassStats pass(Recorder& rec) override {
    PassStats st;
    const auto t0 = Clock::now();
    const std::string dir = dir_ + "/pass" + std::to_string(passes_++);

    std::string coldJson;
    {
      cache::SynthCache cold(dir);
      cache::setActiveCache(&cold);
      st.sweepColdS = timed(rec, st, "sweep cold", [&] {
        return sweep(rec, st, jobs_, coldJson, true);
      });
    }
    std::unique_ptr<cache::SynthCache> warm;
    std::vector<double> warmS;
    for (int i = 0; i < kWarmSweeps; ++i) {
      cache::setActiveCache(nullptr);
      warm = std::make_unique<cache::SynthCache>(dir);
      cache::setActiveCache(warm.get());
      std::string warmJson;
      warmS.push_back(timed(rec, st, "sweep warm", [&] {
        return sweep(rec, st, jobs_, warmJson, false);
      }));
      st.expect(warmJson == coldJson,
                "explore: a warm sweep disagrees with the cold one");
    }
    st.sweepWarmS = median(warmS);
    std::string memoJson;
    timed(rec, st, "sweep memo",
          [&] { return sweep(rec, st, 1, memoJson, false); });
    st.expect(memoJson == coldJson,
              "explore: the one-job memo sweep disagrees with the cold one");
    st.digest.add(coldJson);

    cache::Digest baseFingerprint = 0;
    timed(rec, st, "mfs base",
          [&] { return cachedMfs(rec, st, base_, baseFingerprint); });
    cache::Digest editFingerprint = 0;
    timed(rec, st, "mfs edit",
          [&] { return cachedMfs(rec, st, edited_, editFingerprint); });
    st.expect(baseFingerprint != editFingerprint,
              "edit: the edited design has the base design's fingerprint");

    st.tuneS = 0;
    for (const TuneRequest& t : tunes_)
      st.tuneS += timed(rec, st, t.design.name + " tune",
                        [&] { return tune(rec, st, t); });
    cache::setActiveCache(nullptr);
    st.wallS = secondsSince(t0);
    // Drop the pass's cache outside the timing, and flush the file system
    // so that no write or discard of this pass is still in flight when the
    // next pass starts (deleting many passes' entries at once stalls for
    // seconds on a discard-mounted disk).
    std::error_code ec;
    fs::remove_all(dir, ec);
    syncFileSystem();
    return st;
  }

 private:
  void syncFileSystem() const {
    const int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;
    ::syncfs(fd);
    ::close(fd);
  }

  template <class F>
  double timed(Recorder& rec, PassStats& st, const std::string& label, F&& f) {
    runRequest(rec, st, label, std::forward<F>(f));
    return st.requestS.back();
  }

  /// One explore sweep; `addQor` counts its feasible candidates into the
  /// QoR.
  bool sweep(Recorder& rec, PassStats& st, int jobs, std::string& json,
             bool addQor) {
    const dfg::Dfg g = loadDesign(rec, base_);
    if (!lintClean(rec, g)) return false;
    const explore::ExploreResult r = rec.call("explore", base_.ops, [&] {
      return explore::explore(g, lib_, explore::SweepSpec::defaults(), jobs);
    });
    json = explore::toJson(r);
    if (r.feasibleCount == 0) return false;
    if (addQor)
      for (const explore::Candidate& c : r.candidates)
        if (c.feasible) {
          st.qorArea += c.cost.total;
          st.qorSteps += c.steps;
        }
    return true;
  }

  bool cachedMfs(Recorder& rec, PassStats& st, const DesignText& d,
                 cache::Digest& fingerprint) {
    const dfg::Dfg g = loadDesign(rec, d);
    if (!lintClean(rec, g)) return false;
    fingerprint = rec.call("cache.fingerprint", d.ops,
                           [&] { return cache::fingerprintDfg(g); });
    core::MfsOptions mo;
    mo.constraints.timeSteps = criticalSteps(rec, g, {});
    const core::MfsResult r =
        rec.call("cache", d.ops, [&] { return cache::cachedRunMfs(g, mo); });
    if (!r.feasible) return false;
    st.expect(rec.call("sched.verify", d.ops, [&] {
                return sched::verifySchedule(r.schedule, mo.constraints);
              }).empty(),
              d.name + ": cached MFS schedule fails verification");
    addSchedule(st.digest, r.schedule);
    st.qorSteps += r.steps;
    return true;
  }

  bool tune(Recorder& rec, PassStats& st, const TuneRequest& t) {
    const std::string& name = t.design.name;
    const dfg::Dfg g = loadDesign(rec, t.design);
    if (!lintClean(rec, g)) return false;
    analysis::criticality::TuneOptions opt;
    opt.constraints.allowChaining = true;
    opt.constraints.clockNs = t.clockNs;
    opt.budget = t.budget;
    opt.jobs = jobs_;
    const auto r = rec.call("tune", t.design.ops, [&] {
      return analysis::criticality::tuneDesign(g, lib_, opt);
    });
    if (r.schedule.numSteps() == 0) return false;  // no schedule, no verdict

    // The verdict is only as good as an independent check of its result.
    const std::size_t ops = t.design.ops;
    sched::Constraints check = opt.constraints;
    check.timeSteps = r.schedule.numSteps();
    st.expect(rec.call("sched.verify", ops, [&] {
                return sched::verifySchedule(r.schedule, check);
              }).empty(),
              name + ": tuned schedule fails verification");
    const rtl::ControllerFsm fsm = rec.call("rtl.controller", ops, [&] {
      return rtl::buildController(r.datapath);
    });
    const rtl::MicrocodeRom rom = rec.call("rtl.microcode", ops, [&] {
      return rtl::buildMicrocode(r.datapath, fsm);
    });
    st.expect(rec.call("analysis.validate", ops, [&] {
                return analysis::proveDatapath(r.datapath, fsm, rom);
              }).empty(),
              name + ": translation validation refutes the tuned datapath");
    analysis::timing::TimingOptions to;
    to.clockNs = t.clockNs;
    to.clockSet = true;
    const analysis::timing::TimingReport sta = rec.call(
        "analysis.timing", ops,
        [&] { return analysis::timing::analyzeTiming(r.datapath, to); });
    st.expect(sta.worstSlackNs == r.worstSlackNs,
              name + ": STA disagrees with tune's final worst slack");
    st.expect(r.converged == (sta.worstSlackNs >= 0),
              name + ": tune's verdict disagrees with its final slack");
    analysis::criticality::CriticalityOptions co;
    co.clockNs = t.clockNs;
    const auto crit = rec.call("analysis.criticality", ops, [&] {
      return analysis::criticality::analyzeCriticality(r.datapath, sta, r.slack,
                                                       nullptr, co);
    });
    st.expect(r.converged == crit.seeds.empty(),
              name + ": criticality seeds disagree with tune's verdict");

    addSchedule(st.digest, r.schedule);
    st.digest.add(r.iterations);
    st.digest.add(r.worstSlackNs);
    st.tuneSlackNs += r.worstSlackNs;
    st.qorSteps += r.steps;
    return true;
  }

  celllib::CellLibrary lib_;
  int jobs_;
  std::string dir_;
  int passes_ = 0;
  DesignText base_;
  DesignText edited_;
  std::vector<TuneRequest> tunes_;
};

}  // namespace

std::unique_ptr<Workload> makeIterate(const WorkloadConfig& cfg) {
  return std::make_unique<Iterate>(cfg);
}

}  // namespace perfbench
