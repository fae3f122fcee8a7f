#include "dfg/dfg.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::dfg {

NodeId Dfg::addNode(Node n) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  n.id = id;
  nodes_.push_back(std::move(n));
  frozen_ = false;
  return id;
}

void Dfg::markOutput(NodeId id, std::string externalName) {
  outputs_.emplace_back(id, std::move(externalName));
}

void Dfg::throwUnfrozen(const char* accessor) {
  throw std::logic_error(std::string("Dfg::") + accessor +
                         " on an unfrozen graph — call freeze() after "
                         "mutating (Builder::build and dfg::parse freeze "
                         "for you)");
}

void Dfg::freeze() {
  if (frozen_) return;
  const std::size_t n = nodes_.size();

  // SoA attribute mirrors.
  kind_.resize(n);
  cycles_.resize(n);
  width_.resize(n);
  delay_.resize(n);
  for (const Node& nd : nodes_) {
    kind_[nd.id] = nd.kind;
    cycles_[nd.id] = nd.cycles;
    width_[nd.id] = nd.width;
    delay_[nd.id] = nd.effectiveDelayNs();
  }

  // Successor CSR. Filling in id order keeps every successor list sorted by
  // consumer id with duplicate edges preserved (a node listed twice among a
  // consumer's inputs appears twice), which topoOrder's indegree accounting
  // relies on. Inputs out of range (pre-validate graphs) are skipped here
  // and diagnosed by validate().
  succOff_.assign(n + 1, 0);
  for (const Node& nd : nodes_)
    for (NodeId in : nd.inputs)
      if (in < n) ++succOff_[in + 1];
  for (std::size_t i = 0; i < n; ++i) succOff_[i + 1] += succOff_[i];
  succEdges_.resize(succOff_[n]);
  {
    std::vector<std::uint32_t> cursor(succOff_.begin(), succOff_.end() - 1);
    for (const Node& nd : nodes_)
      for (NodeId in : nd.inputs)
        if (in < n) succEdges_[cursor[in]++] = nd.id;
  }

  // Schedulable-predecessor CSR, operand order preserved.
  predOff_.assign(n + 1, 0);
  for (const Node& nd : nodes_)
    for (NodeId in : nd.inputs)
      if (in < n && isSchedulable(kind_[in])) ++predOff_[nd.id + 1];
  for (std::size_t i = 0; i < n; ++i) predOff_[i + 1] += predOff_[i];
  predEdges_.resize(predOff_[n]);
  {
    std::size_t at = 0;
    for (const Node& nd : nodes_)
      for (NodeId in : nd.inputs)
        if (in < n && isSchedulable(kind_[in])) predEdges_[at++] = in;
  }

  // Schedulable-successor CSR: the successor lists filtered in place.
  opSuccOff_.assign(n + 1, 0);
  for (std::size_t id = 0; id < n; ++id)
    for (std::uint32_t e = succOff_[id]; e < succOff_[id + 1]; ++e)
      if (isSchedulable(kind_[succEdges_[e]])) ++opSuccOff_[id + 1];
  for (std::size_t i = 0; i < n; ++i) opSuccOff_[i + 1] += opSuccOff_[i];
  opSuccEdges_.resize(opSuccOff_[n]);
  {
    std::size_t at = 0;
    for (std::size_t id = 0; id < n; ++id)
      for (std::uint32_t e = succOff_[id]; e < succOff_[id + 1]; ++e)
        if (isSchedulable(kind_[succEdges_[e]])) opSuccEdges_[at++] = succEdges_[e];
  }

  operations_.clear();
  std::fill(std::begin(typeCount_), std::end(typeCount_), 0);
  for (const Node& nd : nodes_)
    if (isSchedulable(nd.kind)) {
      operations_.push_back(nd.id);
      ++typeCount_[static_cast<std::size_t>(fuTypeOf(nd.kind))];
    }

  nameIndex_.clear();
  nameIndex_.reserve(n);
  for (const Node& nd : nodes_) nameIndex_.try_emplace(nd.name, nd.id);

  // Intern branch paths: equal paths share a scope id; each unique path is
  // split once into component ids so mutuallyExclusive never touches a
  // string again.
  scope_.resize(n);
  scopeOff_.assign(1, 0);
  scopeComp_.clear();
  std::unordered_map<std::string, std::uint32_t> pathIds;
  std::unordered_map<std::string, std::uint32_t> compIds;
  for (const Node& nd : nodes_) {
    const auto next = static_cast<std::uint32_t>(scopeOff_.size() - 1);
    auto [it, inserted] = pathIds.try_emplace(nd.branchPath, next);
    if (inserted) {
      // The empty path gets no components (split would yield one empty one),
      // which is what isUnconditional tests.
      if (!nd.branchPath.empty())
        for (const std::string& comp : util::split(nd.branchPath, '.')) {
          const auto cid = static_cast<std::uint32_t>(compIds.size());
          scopeComp_.push_back(compIds.try_emplace(comp, cid).first->second);
        }
      scopeOff_.push_back(static_cast<std::uint32_t>(scopeComp_.size()));
    }
    scope_[nd.id] = it->second;
  }

  frozen_ = true;
  trace::bump(trace::Counter::DfgFreezes);
  trace::bump(trace::Counter::DfgCsrEdges,
              static_cast<std::uint64_t>(succEdges_.size()) +
                  predEdges_.size() + opSuccEdges_.size());
}

std::optional<std::vector<NodeId>> Dfg::topoOrder() const {
  const std::size_t n = nodes_.size();
  std::vector<int> indeg(n, 0);
  for (const Node& nd : nodes_)
    indeg[nd.id] = static_cast<int>(nd.inputs.size());

  std::vector<NodeId> ready;
  for (NodeId id = 0; id < n; ++id)
    if (indeg[id] == 0) ready.push_back(id);

  std::vector<NodeId> order;
  order.reserve(n);
  if (frozen_) {
    while (!ready.empty()) {
      const NodeId id = ready.back();
      ready.pop_back();
      order.push_back(id);
      for (NodeId s : succs(id))
        if (--indeg[s] == 0) ready.push_back(s);
    }
  } else {
    // Pre-freeze path (validate() runs before the first freeze): build a
    // throwaway local adjacency with the same ordering discipline.
    std::vector<std::vector<NodeId>> succLocal(n);
    for (const Node& nd : nodes_)
      for (NodeId in : nd.inputs)
        if (in < n) succLocal[in].push_back(nd.id);
    while (!ready.empty()) {
      const NodeId id = ready.back();
      ready.pop_back();
      order.push_back(id);
      for (NodeId s : succLocal[id])
        if (--indeg[s] == 0) ready.push_back(s);
    }
  }
  if (order.size() != n) return std::nullopt;  // cycle
  return order;
}

bool pathsMutuallyExclusive(std::string_view a, std::string_view b) {
  const auto pa = util::split(a, '.');
  const auto pb = util::split(b, '.');
  if (a.empty() || b.empty()) return false;
  // Components alternate: cond-id at even index, arm-id at odd index.
  const std::size_t n = std::min(pa.size(), pb.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (pa[i] == pb[i]) continue;
    // First divergence. Exclusive only when it happens at an arm component
    // (odd index) — i.e. same conditional, different arms. Divergence at a
    // conditional component means unrelated conditionals, which can both
    // execute.
    return (i % 2) == 1;
  }
  return false;  // one path prefixes the other: nested, can co-execute
}

bool Dfg::mutuallyExclusive(NodeId a, NodeId b) const {
  if (!frozen_)
    return pathsMutuallyExclusive(nodes_[a].branchPath, nodes_[b].branchPath);
  const std::uint32_t sa = scope_[a];
  const std::uint32_t sb = scope_[b];
  if (sa == sb) return false;  // identical paths never diverge
  const std::uint32_t* ca = scopeComp_.data() + scopeOff_[sa];
  const std::uint32_t* cb = scopeComp_.data() + scopeOff_[sb];
  const std::size_t la = scopeOff_[sa + 1] - scopeOff_[sa];
  const std::size_t lb = scopeOff_[sb + 1] - scopeOff_[sb];
  const std::size_t m = std::min(la, lb);
  for (std::size_t i = 0; i < m; ++i)
    if (ca[i] != cb[i]) return (i % 2) == 1;
  return false;
}

NodeId Dfg::findByName(std::string_view name) const {
  if (frozen_) {
    const auto it = nameIndex_.find(name);
    return it == nameIndex_.end() ? kNoNode : it->second;
  }
  for (const Node& n : nodes_)
    if (n.name == name) return n.id;
  return kNoNode;
}

std::optional<std::string> Dfg::validate() const {
  std::unordered_set<std::string> names;
  for (const Node& n : nodes_) {
    if (n.id >= nodes_.size() || &nodes_[n.id] != &n)
      return util::format("node '%s': inconsistent id", n.name.c_str());
    if (n.name.empty()) return util::format("node %u has an empty name", n.id);
    if (!names.insert(n.name).second)
      return util::format("duplicate signal name '%s'", n.name.c_str());
    if (n.kind != OpKind::LoopSuper &&
        static_cast<int>(n.inputs.size()) != arity(n.kind))
      return util::format("node '%s' (%s): expects %d inputs, has %zu",
                          n.name.c_str(), std::string(kindName(n.kind)).c_str(),
                          arity(n.kind), n.inputs.size());
    for (NodeId in : n.inputs) {
      if (in >= nodes_.size())
        return util::format("node '%s': input id %u out of range", n.name.c_str(), in);
      if (in >= n.id)
        return util::format("node '%s': input '%s' is not older than the node "
                            "(graph must be built in topological order)",
                            n.name.c_str(), nodes_[in].name.c_str());
    }
    if (n.cycles < 1)
      return util::format("node '%s': cycles=%d must be >= 1", n.name.c_str(), n.cycles);
    // A conditional path must have an even number of components (pairs).
    if (!n.branchPath.empty() && util::split(n.branchPath, '.').size() % 2 != 0)
      return util::format("node '%s': malformed branch path '%s'",
                          n.name.c_str(), n.branchPath.c_str());
  }
  for (const auto& [id, ext] : outputs_) {
    if (id >= nodes_.size())
      return util::format("output '%s': node id %u out of range", ext.c_str(), id);
  }
  if (!topoOrder()) return "graph contains a cycle";
  return std::nullopt;
}

}  // namespace mframe::dfg
