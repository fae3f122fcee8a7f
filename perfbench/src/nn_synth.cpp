// nn_synth: three seeded NN-shaped graphs at 10^4-10^5 operations, each
// through a `schedule` request (MFS and its verifier) and a `synth` request
// (MFSA, its verifier, controller, microcode ROM and rendering), as the CLI
// runs them at the design's critical path. This is where the frontier
// move-frame path, the verifiers' scaling and peak memory show.
//
// The lstm graph's critical path (~4689 steps) is above MFS's 4096-step
// cap, so its schedule request fails; it is counted, never hidden.
#include "core/mfs.h"
#include "core/mfsa.h"
#include "celllib/ncr_like.h"
#include "rtl/microcode.h"
#include "rtl/verify.h"
#include "sched/verify.h"
#include "workload.h"
#include "workloads/random_dfg.h"

namespace perfbench {

using namespace mframe;

namespace {

struct GraphSpec {
  const char* name;
  workloads::DfgTopology topology;
  int ops;
  int width;
};

// conv: wide, heavy fan-out; transformer: MFSA-bound dense blocks;
// lstm: deep recurrent chains.
constexpr GraphSpec kGraphs[] = {
    {"conv", workloads::DfgTopology::Conv, 100000, 64},
    {"transformer", workloads::DfgTopology::Transformer, 30000, 32},
    {"lstm", workloads::DfgTopology::Lstm, 50000, 32},
};

/// The last synth result of each graph, kept for the final simulation gate.
struct Kept {
  dfg::Dfg graph;
  rtl::Datapath datapath;
  rtl::ControllerFsm fsm;
};

class NnSynth final : public Workload {
 public:
  explicit NnSynth(const WorkloadConfig& cfg) : lib_(celllib::ncrLike()) {
    std::uint64_t salt = 0;
    for (const GraphSpec& spec : kGraphs) {
      workloads::RandomDfgOptions o;
      o.topology = spec.topology;
      o.numOps = spec.ops / cfg.scaleDivisor;
      o.layerWidth = spec.width;
      o.numInputs = 8;
      o.seed = static_cast<std::uint32_t>(mixSeed(cfg.seed, salt++));
      const dfg::Dfg g = workloads::randomDfg(o);
      designs_.push_back(designText(g));
      inputs_.push_back(simInputs(g, mixSeed(cfg.seed, salt++)));
    }
    kept_.resize(designs_.size());
  }

  PassStats pass(Recorder& rec) override {
    PassStats st;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < designs_.size(); ++i) {
      const DesignText& d = designs_[i];
      runRequest(rec, st, d.name + " schedule",
                 [&] { return schedule(rec, st, d); });
      runRequest(rec, st, d.name + " synth",
                 [&] { return synth(rec, st, d, kept_[i]); });
    }
    st.wallS = secondsSince(t0);
    return st;
  }

  void finalGate(std::vector<std::string>& violations) override {
    Recorder untraced;
    PassStats st;
    for (std::size_t i = 0; i < kept_.size(); ++i)
      if (kept_[i].graph.size() > 0)
        simulateAndCompare(untraced, st, kept_[i].graph, kept_[i].datapath,
                           kept_[i].fsm, inputs_[i]);
    violations.insert(violations.end(), st.violations.begin(),
                      st.violations.end());
  }

 private:
  bool schedule(Recorder& rec, PassStats& st, const DesignText& d) {
    const dfg::Dfg g = loadDesign(rec, d);
    if (!lintClean(rec, g)) return false;
    core::MfsOptions mo;
    mo.constraints.timeSteps = criticalSteps(rec, g, {});
    if (mo.constraints.timeSteps < 0) return false;
    const core::MfsResult r =
        rec.call("core.mfs", d.ops, [&] { return core::runMfs(g, mo); });
    if (!r.feasible) return false;  // an infeasible result is never verified
    st.expect(rec.call("sched.verify", d.ops, [&] {
                return sched::verifySchedule(r.schedule, mo.constraints);
              }).empty(),
              d.name + ": MFS schedule fails verification");
    addSchedule(st.digest, r.schedule);
    st.qorSteps += r.steps;
    return true;
  }

  bool synth(Recorder& rec, PassStats& st, const DesignText& d, Kept& keep) {
    dfg::Dfg g = loadDesign(rec, d);
    if (!lintClean(rec, g)) return false;
    core::MfsaOptions ao;
    ao.constraints.timeSteps = criticalSteps(rec, g, {});
    if (ao.constraints.timeSteps < 0) return false;
    core::MfsaResult r = rec.call(
        "core.mfsa", d.ops, [&] { return core::runMfsa(g, lib_, ao); });
    if (!r.feasible) return false;
    st.expect(rec.call("rtl.verify", d.ops, [&] {
                return rtl::verifyDatapath(r.datapath, ao.constraints,
                                           ao.style);
              }).empty(),
              d.name + ": MFSA datapath fails verification");
    rtl::ControllerFsm fsm = rec.call("rtl.controller", d.ops, [&] {
      return rtl::buildController(r.datapath);
    });
    const rtl::MicrocodeRom rom = rec.call("rtl.microcode", d.ops, [&] {
      return rtl::buildMicrocode(r.datapath, fsm);
    });
    st.digest.add(render(rec, r.datapath, fsm));
    st.digest.add(rom.totalBits());
    st.digest.add(r.cost.total);
    st.qorArea += r.cost.total;
    st.qorSteps += r.steps;
    keep = Kept{std::move(g), std::move(r.datapath), std::move(fsm)};
    return true;
  }

  celllib::CellLibrary lib_;
  std::vector<DesignText> designs_;
  std::vector<std::map<std::string, sim::Word>> inputs_;
  std::vector<Kept> kept_;
};

}  // namespace

std::unique_ptr<Workload> makeNnSynth(const WorkloadConfig& cfg) {
  return std::make_unique<NnSynth>(cfg);
}

}  // namespace perfbench
