#include "dfg/transforms.h"

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>

#include "dfg/builder.h"
#include "util/strings.h"

namespace mframe::dfg {

namespace {

/// Longest common prefix of two branch paths, in whole cond/arm pairs.
std::string commonBranchPrefix(const std::string& a, const std::string& b) {
  const auto pa = util::split(a, '.');
  const auto pb = util::split(b, '.');
  std::vector<std::string> common;
  for (std::size_t i = 0; i < std::min(pa.size(), pb.size()); ++i) {
    if (pa[i] != pb[i]) break;
    common.push_back(pa[i]);
  }
  // Keep whole (cond, arm) pairs only.
  if (common.size() % 2 != 0) common.pop_back();
  return util::join(common, ".");
}

bool sameOperands(const Node& a, const Node& b) {
  if (std::ranges::equal(a.inputs, b.inputs)) return true;
  if (isCommutative(a.kind) && a.inputs.size() == 2 &&
      a.inputs[0] == b.inputs[1] && a.inputs[1] == b.inputs[0])
    return true;
  return false;
}

/// Rebuild `g` dropping nodes mapped to a representative and rewriting input
/// references through the mapping.
Dfg rebuildMerged(const Dfg& g, const std::map<NodeId, NodeId>& replaceBy,
                  const std::map<NodeId, std::string>& newBranch) {
  Builder out(g.name());
  std::vector<NodeId> newId(g.size(), kNoNode);
  for (const Node& n : g.nodes()) {
    if (replaceBy.count(n.id)) continue;  // dropped duplicate
    std::vector<NodeId> inputs;
    for (NodeId in : n.inputs) {
      NodeId target = in;
      auto it = replaceBy.find(target);
      if (it != replaceBy.end()) target = it->second;
      inputs.push_back(newId[target]);
    }
    newId[n.id] = out.copy(n, n.name, std::move(inputs));
    auto bp = newBranch.find(n.id);
    if (bp != newBranch.end()) out.setBranchPath(newId[n.id], bp->second);
  }
  for (const auto& [id, ext] : g.outputs()) {
    NodeId target = id;
    auto it = replaceBy.find(target);
    if (it != replaceBy.end()) target = it->second;
    out.output(newId[target], ext);
  }
  return std::move(out).build();
}

}  // namespace

std::size_t mergeSharedBranchOps(Dfg& g) {
  std::size_t removedTotal = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    std::map<NodeId, NodeId> replaceBy;   // duplicate -> survivor
    std::map<NodeId, std::string> newBranch;
    const auto ops = g.operations();
    for (std::size_t i = 0; i < ops.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        const Node& a = g.node(ops[i]);
        const Node& b = g.node(ops[j]);
        if (a.kind != b.kind || a.cycles != b.cycles) continue;
        if (!g.mutuallyExclusive(a.id, b.id)) continue;
        if (!sameOperands(a, b)) continue;
        // Merge b into a; hoist a to the arms' common conditional prefix so
        // the surviving instance executes on either path.
        replaceBy[b.id] = a.id;
        newBranch[a.id] = commonBranchPrefix(a.branchPath, b.branchPath);
        changed = true;
        ++removedTotal;
        break;  // rebuild, then rescan — operand identity shifts after merge
      }
    }
    if (changed) g = rebuildMerged(g, replaceBy, newBranch);
  }
  return removedTotal;
}

Dfg foldLoopNest(const LoopNest& nest, const BodyScheduler& sched) {
  if (nest.children.empty()) return nest.body;
  const Dfg& body = nest.body;
  Builder folded(body);

  // Innermost first: fold every child, then record its achieved step count
  // on the matching LoopSuper node of this body.
  for (const LoopNest& child : nest.children) {
    const Dfg inner = foldLoopNest(child, sched);
    const int steps = sched(inner, child.localTimeConstraint);
    if (steps < 1 || steps > child.localTimeConstraint)
      throw std::runtime_error(util::format(
          "loop '%s': scheduler returned %d steps for constraint %d",
          inner.name().c_str(), steps, child.localTimeConstraint));
    const NodeId super = body.findByName(inner.name());
    if (super == kNoNode)
      throw std::runtime_error("loop body '" + body.name() +
                               "' has no LoopSuper node named '" + inner.name() + "'");
    if (body.node(super).kind != OpKind::LoopSuper)
      throw std::runtime_error("node '" + inner.name() + "' is not a LoopSuper node");
    folded.setCycles(super, steps);
  }
  return std::move(folded).build();
}

NodeId addLoopBookkeeping(Dfg& body, const std::string& counterSignal,
                          long bound) {
  Builder b(body);
  NodeId counter = body.findByName(counterSignal);
  if (counter == kNoNode) counter = b.input(counterSignal);
  const NodeId boundId = b.constant(bound, counterSignal + "_bound");
  const NodeId incId = b.inc(counter, counterSignal + "_next");
  const NodeId cmpId = b.lt(incId, boundId, counterSignal + "_continue");
  b.output(cmpId, counterSignal + "_continue");
  b.output(incId, counterSignal + "_next");
  body = std::move(b).build();
  return cmpId;
}

ConeCut extractCone(const Dfg& g, const std::vector<NodeId>& seeds, int hops) {
  // BFS over operation edges (both directions) up to `hops`.
  std::vector<int> dist(g.size(), -1);
  std::deque<NodeId> work;
  for (NodeId s : seeds) {
    if (s >= g.size() || !isSchedulable(g.node(s).kind))
      throw std::invalid_argument(util::format(
          "extractCone: seed %u is not a schedulable operation",
          static_cast<unsigned>(s)));
    if (dist[s] == -1) {
      dist[s] = 0;
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    const NodeId id = work.front();
    work.pop_front();
    if (dist[id] >= hops) continue;
    auto visit = [&](NodeId n) {
      if (dist[n] == -1) {
        dist[n] = dist[id] + 1;
        work.push_back(n);
      }
    };
    for (NodeId p : g.opPreds(id)) visit(p);
    for (NodeId s : g.opSuccs(id)) visit(s);
  }

  ConeCut cut;
  Builder cone(g.name() + ".cone");
  std::map<NodeId, NodeId> toCone;  // full id -> cone id, incl. copied leaves
  std::vector<char> isFrontier(g.size(), 0);

  // A non-member producer referenced by a member: Input/Const leaves are
  // copied verbatim; operation results are pinned as frontier Input nodes so
  // the cone scheduler treats them as available at the window boundary.
  auto pin = [&](NodeId full) -> NodeId {
    auto it = toCone.find(full);
    if (it != toCone.end()) return it->second;
    const Node& src = g.node(full);
    NodeId cid;
    if (src.kind == OpKind::Const) {
      cid = cone.constant(src.constValue, src.name);
      cone.setWidth(cid, src.width);
    } else {
      cid = cone.input(src.name, src.width);
      if (isSchedulable(src.kind) && !isFrontier[full]) {
        isFrontier[full] = 1;
        cut.frontier.push_back(full);
      }
    }
    toCone.emplace(full, cid);
    cut.coneToFull.resize(cid + 1, kNoNode);
    cut.coneToFull[cid] = full;
    return cid;
  };

  // Walk in full-graph id order (topological) so pinned leaves are created
  // before their first member reader and the cone stays topologically sorted.
  for (NodeId id = 0; id < g.size(); ++id) {
    const Node& n = g.node(id);
    if (dist[id] == -1 || !isSchedulable(n.kind)) continue;
    std::vector<NodeId> inputs;
    for (NodeId in : n.inputs) {
      const bool member = dist[in] != -1 && isSchedulable(g.node(in).kind);
      inputs.push_back(member ? toCone.at(in) : pin(in));
    }
    const NodeId cid = cone.copy(n, n.name, std::move(inputs));
    toCone.emplace(id, cid);
    cut.toCone.emplace(id, cid);
    cut.coneToFull.resize(cid + 1, kNoNode);
    cut.coneToFull[cid] = id;
    ++cut.coneOps;
  }

  // Cone outputs: member results read outside the cone or exported by `g`.
  std::vector<char> exported(g.size(), 0);
  for (const auto& [id, ext] : g.outputs()) exported[id] = 1;
  for (const auto& [full, cid] : cut.toCone) {
    bool isOut = exported[full] != 0;
    for (NodeId s : g.succs(full)) {
      const bool memberReader =
          dist[s] != -1 && isSchedulable(g.node(s).kind);
      if (!memberReader) isOut = true;
    }
    if (isOut) cone.output(cid, g.node(full).name);
  }
  cut.cone = std::move(cone).build();
  return cut;
}

}  // namespace mframe::dfg
