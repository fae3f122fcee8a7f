#include "workload.h"

#include <algorithm>

#include "analysis/dfg_rules.h"
#include "dfg/parser.h"
#include "lang/lower.h"
#include "rtl/verilog.h"
#include "sched/timeframes.h"
#include "sim/dfg_eval.h"
#include "sim/rtl_sim.h"

namespace perfbench {

using namespace mframe;

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

DesignText designText(const dfg::Dfg& g) {
  return {g.name(), dfg::serialize(g), false, g.operations().size()};
}

std::map<std::string, sim::Word> simInputs(const dfg::Dfg& g,
                                           std::uint64_t seed) {
  std::map<std::string, sim::Word> in;
  std::uint64_t k = 0;
  for (const dfg::Node& n : g.nodes())
    if (n.kind == dfg::OpKind::Input)
      in[n.name] = mixSeed(seed, k++) & 0xffffu;
  return in;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const WorkloadConfig& cfg) {
  if (name == "paper_signoff") return makePaperSignoff(cfg);
  if (name == "nn_synth") return makeNnSynth(cfg);
  if (name == "iterate") return makeIterate(cfg);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

dfg::Dfg loadDesign(Recorder& rec, const DesignText& d) {
  if (!d.behavioral)
    return rec.call("dfg.parse", d.ops, [&] { return dfg::parse(d.text); });
  return rec.call("lang.compile", d.ops, [&] {
    lang::Compiled c = lang::compile(d.text);
    if (c.hasLoops())
      throw std::runtime_error(d.name + ": loop folding is not benchmarked");
    return std::move(c.nest.body);
  });
}

bool lintClean(Recorder& rec, const dfg::Dfg& g) {
  return rec.call("analysis.lint", g.operations().size(),
                  [&] { return !analysis::lintDfg(g).hasErrors(); });
}

int criticalSteps(Recorder& rec, const dfg::Dfg& g,
                  const sched::Constraints& c) {
  return rec.call("sched.timeframes", g.operations().size(), [&] {
    const auto tf = sched::computeTimeFrames(g, c);
    return tf ? tf->criticalSteps() : -1;
  });
}

std::string render(Recorder& rec, const rtl::Datapath& d,
                   const rtl::ControllerFsm& fsm) {
  return rec.call("rtl.render", d.schedule.graph().operations().size(), [&] {
    return rtl::toVerilog(d, fsm) + d.schedule.toString();
  });
}

void addSchedule(cache::Fnv1a& dg, const sched::Schedule& s) {
  dg.add(s.numSteps());
  for (const dfg::NodeId id : s.graph().operations()) {
    dg.add(s.at(id).step);
    dg.add(s.at(id).column);
  }
}

void simulateAndCompare(Recorder& rec, PassStats& st, const dfg::Dfg& g,
                        const rtl::Datapath& d, const rtl::ControllerFsm& fsm,
                        const std::map<std::string, sim::Word>& in) {
  const auto [rtlOut, ref] = rec.call("sim", g.operations().size(), [&] {
    return std::make_pair(sim::simulateRtl(d, fsm, in), sim::evalDfg(g, in));
  });
  st.expect(rtlOut.ok, g.name() + ": RTL simulation failed: " + rtlOut.error);
  st.expect(ref.ok, g.name() + ": reference evaluation failed: " + ref.error);
  if (!rtlOut.ok || !ref.ok) return;
  st.expect(rtlOut.outputs == ref.outputs,
            g.name() + ": RTL simulation differs from evalDfg");
  for (const auto& [name, value] : rtlOut.outputs) {
    st.digest.add(name);
    st.digest.add(value);
  }
}

}  // namespace perfbench
