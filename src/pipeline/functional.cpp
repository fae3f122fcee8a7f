#include "pipeline/functional.h"

#include <cmath>

#include "dfg/builder.h"
#include "util/strings.h"

namespace mframe::pipeline {

int partitionBoundary(int cs, int latency) {
  return (cs + latency + 1) / 2;  // ceil((cs + L) / 2)
}

dfg::Dfg buildTwoInstanceDfg(const dfg::Dfg& g, int latency) {
  dfg::Builder out(g.name() + "_double");
  std::vector<dfg::NodeId> map1(g.size()), map2(g.size());
  auto remap = [](const dfg::Node& n, const std::vector<dfg::NodeId>& map) {
    std::vector<dfg::NodeId> inputs;
    for (dfg::NodeId in : n.inputs) inputs.push_back(map[in]);
    return inputs;
  };

  // Instance 1: a verbatim copy.
  for (const dfg::Node& n : g.nodes())
    map1[n.id] = out.copy(n, n.name + "_i1", remap(n, map1));
  // Delay chain: L-1 unit-cycle pseudo-operations; together with the gate
  // op each instance-2 input becomes, instance 2's ASAP profile lands
  // exactly L steps after instance 1's.
  std::vector<dfg::NodeId> delayTail;
  for (int i = 0; i + 1 < latency; ++i)
    delayTail = {out.op(dfg::OpKind::LoopSuper, delayTail,
                        util::format("delay_%d", i + 1))};
  // Instance 2: inputs gated behind the delay chain.
  for (const dfg::Node& n : g.nodes()) {
    const std::string name = n.name + "_i2";
    if (n.kind == dfg::OpKind::Input && latency > 0) {
      // Model "arrives L steps later" by turning the input into a unit
      // pseudo-op (the gate) fed by the delay chain.
      map2[n.id] = out.op(dfg::OpKind::LoopSuper, delayTail, name, 1, n.delayNs);
      out.setBranchPath(map2[n.id], n.branchPath);
      out.setWidth(map2[n.id], n.width);
    } else {
      map2[n.id] = out.copy(n, name, remap(n, map2));
    }
  }
  for (const auto& [id, ext] : g.outputs()) {
    out.output(map1[id], ext + "_i1");
    out.output(map2[id], ext + "_i2");
  }
  return std::move(out).build();
}

PartitionPipelineResult pipelineByPartition(const dfg::Dfg& g, int timeSteps,
                                            int latency,
                                            const core::MfsOptions& base) {
  PartitionPipelineResult res;
  res.boundary = partitionBoundary(timeSteps, latency);

  // Steps 3-4 of the procedure: produce identical, balanced instances. The
  // folded schedule is exactly that fixed point — instance-2 operations
  // occupy the same units L steps later, which is what scheduling DFG_p1
  // with instance-2 dummies and then adjusting converges to.
  core::MfsOptions o = base;
  o.mode = core::MfsLiapunov::Mode::TimeConstrained;
  o.constraints.timeSteps = timeSteps;
  o.constraints.latency = latency;
  const auto folded = core::runMfs(g, o);
  if (!folded.feasible) {
    res.error = folded.error;
    return res;
  }
  for (dfg::NodeId id : g.operations())
    res.stepOfInstance1[g.node(id).name] = folded.schedule.stepOf(id);

  // Step 5 / materialization: place both instances of DFG_double explicitly
  // and let the *plain* verifier (no folding) prove the overlap is legal.
  const dfg::Dfg d = buildTwoInstanceDfg(g, latency);
  sched::Schedule sd(d);
  sd.setNumSteps(timeSteps + latency);

  // The delay chain runs down LoopUnit column 1; the instance-2 input gates
  // all fire in step L on their own columns.
  for (int i = 1; i < latency; ++i) {
    const dfg::NodeId delay = d.findByName(util::format("delay_%d", i));
    if (delay != dfg::kNoNode) sd.place(delay, i, 1);
  }
  int gateCol = 0;
  for (const dfg::Node& n : g.nodes()) {
    const dfg::NodeId i2 = d.findByName(n.name + "_i2");
    if (n.kind == dfg::OpKind::Input) {
      if (i2 != dfg::kNoNode) sd.place(i2, latency, ++gateCol + 1);
      continue;
    }
    if (!dfg::isSchedulable(n.kind)) continue;
    const dfg::NodeId i1 = d.findByName(n.name + "_i1");
    const int step = folded.schedule.stepOf(n.id);
    const int col = folded.schedule.columnOf(n.id);
    sd.place(i1, step, col);
    sd.place(i2, step + latency, col);
  }

  for (const auto& [t, n] : sd.fuCount())
    if (t != dfg::FuType::LoopUnit) res.fuCount[t] = n;
  res.doubled = std::move(sd);
  res.feasible = true;
  return res;
}

FunctionalPipelineResult runFunctionalPipelinedMfs(const dfg::Dfg& g,
                                                   int timeSteps, int latency,
                                                   const core::MfsOptions& base) {
  FunctionalPipelineResult res;
  res.latency = latency;

  core::MfsOptions opt = base;
  opt.mode = core::MfsLiapunov::Mode::TimeConstrained;
  opt.constraints.timeSteps = timeSteps;
  opt.constraints.latency = latency;
  res.mfs = core::runMfs(g, opt);
  if (!res.mfs.feasible) {
    res.error = res.mfs.error;
    return res;
  }
  res.fuCount = res.mfs.fuCount;  // folding already accounts for the overlap
  res.feasible = true;
  return res;
}

}  // namespace mframe::pipeline
