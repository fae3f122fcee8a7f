// paper_signoff: every design the paper (and the extended suite) ships,
// taken through the whole sign-off chain — parse, lint, timeframes, MFS and
// its verifier, MFSA and its verifier, controller and microcode, prove,
// audit, range, STA, RTL simulation against the DFG interpreter, and
// rendering. The graphs are small, so the exhaustive move-frame path and
// the sign-off analyses do the work while the cache and tune stay idle.
#include <fstream>
#include <sstream>

#include "analysis/audit/audit.h"
#include "analysis/range/range.h"
#include "analysis/timing/sta.h"
#include "analysis/validate/validate.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "lang/lower.h"
#include "rtl/microcode.h"
#include "rtl/verify.h"
#include "sched/timeframes.h"
#include "sched/verify.h"
#include "workload.h"
#include "workloads/benchmarks.h"

namespace perfbench {

using namespace mframe;

namespace {

struct SignoffRequest {
  DesignText design;
  sched::Constraints constraints;  ///< timeSteps is the request's T
  std::map<std::string, sim::Word> inputs;
};

class PaperSignoff final : public Workload {
 public:
  explicit PaperSignoff(const WorkloadConfig& cfg) : lib_(celllib::ncrLike()) {
    std::uint64_t salt = 0;
    auto add = [&](const dfg::Dfg& g, DesignText text,
                   sched::Constraints c) {
      requests_.push_back(
          {std::move(text), c, simInputs(g, mixSeed(cfg.seed, salt++))});
    };
    // The six Table-1 cases at each T of their sweeps.
    for (const workloads::BenchmarkCase& bc : workloads::paperSuite())
      for (const int t : bc.timeSweep) {
        sched::Constraints c = bc.constraints;
        c.timeSteps = t;
        add(bc.graph, designText(bc.graph), c);
      }
    // The extended suite and the behavioral diffeq source, at their
    // critical paths (the CLI's default --steps).
    auto atCriticalPath = [](const dfg::Dfg& g) {
      sched::Constraints c;
      c.timeSteps = sched::computeTimeFrames(g, c)->criticalSteps();
      return c;
    };
    for (const dfg::Dfg& g : {workloads::fdctLike(), workloads::iirBiquads(),
                              workloads::dct2d4x4()})
      add(g, designText(g), atCriticalPath(g));

    const std::string path = cfg.root + "/tools/designs/diffeq.mfb";
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::stringstream source;
    source << in.rdbuf();
    const dfg::Dfg diffeq = lang::compileFlat(source.str());
    add(diffeq,
        {diffeq.name(), source.str(), true, diffeq.operations().size()},
        atCriticalPath(diffeq));
  }

  PassStats pass(Recorder& rec) override {
    PassStats st;
    const auto t0 = Clock::now();
    for (const SignoffRequest& r : requests_)
      runRequest(rec, st, r.design.name, [&] { return signoff(rec, st, r); });
    st.wallS = secondsSince(t0);
    return st;
  }

 private:
  bool signoff(Recorder& rec, PassStats& st, const SignoffRequest& r) {
    const std::string& name = r.design.name;
    const dfg::Dfg g = loadDesign(rec, r.design);
    const std::size_t ops = g.operations().size();
    if (!lintClean(rec, g)) return false;
    const int critical = criticalSteps(rec, g, r.constraints);
    if (critical < 0 || critical > r.constraints.timeSteps) return false;

    core::MfsOptions mo;
    mo.constraints = r.constraints;
    const core::MfsResult mfs =
        rec.call("core.mfs", ops, [&] { return core::runMfs(g, mo); });
    if (!mfs.feasible) return false;
    st.expect(rec.call("sched.verify", ops, [&] {
                return sched::verifySchedule(mfs.schedule, mo.constraints);
              }).empty(),
              name + ": MFS schedule fails verification");

    core::MfsaOptions ao;
    ao.constraints = r.constraints;
    const core::MfsaResult mfsa =
        rec.call("core.mfsa", ops, [&] { return core::runMfsa(g, lib_, ao); });
    if (!mfsa.feasible) return false;
    const rtl::Datapath& dp = mfsa.datapath;
    st.expect(rec.call("rtl.verify", ops, [&] {
                return rtl::verifyDatapath(dp, ao.constraints, ao.style);
              }).empty(),
              name + ": MFSA datapath fails verification");

    const rtl::ControllerFsm fsm = rec.call(
        "rtl.controller", ops, [&] { return rtl::buildController(dp); });
    const rtl::MicrocodeRom rom = rec.call(
        "rtl.microcode", ops, [&] { return rtl::buildMicrocode(dp, fsm); });

    st.expect(rec.call("analysis.validate", ops, [&] {
                return analysis::proveDatapath(dp, fsm, rom);
              }).empty(),
              name + ": translation validation refutes the datapath");
    st.expect(rec.call("analysis.audit", ops, [&] {
                return analysis::audit::auditDesign(dp, fsm, rom);
              }).clean(),
              name + ": audit findings");
    st.expect(rec.call("analysis.range", ops, [&] {
                return analysis::range::analyzeDesignRanges(dp, fsm, rom);
              }).clean(),
              name + ": range findings");
    analysis::timing::TimingOptions to;
    to.clockNs = r.constraints.clockNs;
    to.clockSet = r.constraints.allowChaining;
    const double worstSlack = rec.call("analysis.timing", ops, [&] {
      return analysis::timing::analyzeTiming(dp, to).worstSlackNs;
    });

    simulateAndCompare(rec, st, g, dp, fsm, r.inputs);
    const std::string text = render(rec, dp, fsm);

    addSchedule(st.digest, mfs.schedule);
    st.digest.add(text);
    st.digest.add(mfsa.cost.total);
    st.digest.add(worstSlack);
    st.qorArea += mfsa.cost.total;
    st.qorSteps += mfs.steps + mfsa.steps;
    return true;
  }

  celllib::CellLibrary lib_;
  std::vector<SignoffRequest> requests_;
};

}  // namespace

std::unique_ptr<Workload> makePaperSignoff(const WorkloadConfig& cfg) {
  return std::make_unique<PaperSignoff>(cfg);
}

}  // namespace perfbench
