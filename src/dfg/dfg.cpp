#include "dfg/dfg.h"

#include <algorithm>

#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::dfg {

template <typename EdgesOf>
void Dfg::Csr::fill(std::size_t rows, EdgesOf edgesOf) {
  off.assign(rows + 1, 0);
  for (std::size_t r = 0; r < rows; ++r)
    edgesOf(r, [&](NodeId) { ++off[r + 1]; });
  for (std::size_t r = 0; r < rows; ++r) off[r + 1] += off[r];
  edges.resize(off[rows]);
  std::size_t at = 0;
  for (std::size_t r = 0; r < rows; ++r)
    edgesOf(r, [&](NodeId e) { edges[at++] = e; });
}

Dfg::Dfg() {
  static const auto empty = std::make_shared<const Store>(Columns{});
  s_ = empty;
}

Dfg::Dfg(std::shared_ptr<const Store> s) : s_(std::move(s)) {
  trace::bump(trace::Counter::DfgFreezes);
  trace::bump(trace::Counter::DfgCsrEdges, s_->succ.edges.size() +
                                               s_->opPred.edges.size() +
                                               s_->opSucc.edges.size());
}

Dfg::Store::Store(Columns c) : Columns(std::move(c)) {
  const std::size_t n = kind.size();
  auto schedulable = [&](NodeId id) { return isSchedulable(kind[id]); };

  // Successor CSR. Filling in id order keeps every successor list sorted by
  // consumer id with duplicate edges preserved (a node listed twice among a
  // consumer's inputs appears twice), which topoOrder's indegree accounting
  // relies on. Inputs out of range (buildLenient graphs) are skipped here
  // and diagnosed in `error`.
  succ.off.assign(n + 1, 0);
  for (NodeId in : inputs.edges)
    if (in < n) ++succ.off[in + 1];
  for (std::size_t i = 0; i < n; ++i) succ.off[i + 1] += succ.off[i];
  succ.edges.resize(succ.off[n]);
  {
    std::vector<std::uint32_t> cursor(succ.off.begin(), succ.off.end() - 1);
    for (NodeId id = 0; id < n; ++id)
      for (NodeId in : inputs.row(id))
        if (in < n) succ.edges[cursor[in]++] = id;
  }

  // Schedulable-predecessor CSR, operand order preserved; schedulable
  // successors are the successor lists filtered in place.
  opPred.fill(n, [&](std::size_t id, auto push) {
    for (NodeId in : inputs.row(static_cast<NodeId>(id)))
      if (in < n && schedulable(in)) push(in);
  });
  opSucc.fill(n, [&](std::size_t id, auto push) {
    for (NodeId s : succ.row(static_cast<NodeId>(id)))
      if (schedulable(s)) push(s);
  });

  for (NodeId id = 0; id < n; ++id)
    if (schedulable(id)) {
      operations.push_back(id);
      ++typeCount[static_cast<std::size_t>(fuTypeOf(kind[id]))];
    }

  nameIndex.reserve(n);
  for (NodeId id = 0; id < n; ++id) nameIndex.try_emplace(names[id], id);

  // Split each unique branch path into interned component ids so
  // mutuallyExclusive never touches a string. The empty path gets no
  // components (split would yield one empty one), so an unconditional node
  // diverges from no path.
  std::unordered_map<std::string, std::uint32_t> compIds;
  std::vector<char> oddPath(scopePaths.size(), 0);
  scopeComp.fill(scopePaths.size(), [&](std::size_t s, auto push) {
    if (scopePaths[s].empty()) return;
    const auto comps = util::split(scopePaths[s], '.');
    oddPath[s] = comps.size() % 2 != 0;
    for (const std::string& comp : comps)
      push(compIds.try_emplace(comp, static_cast<std::uint32_t>(compIds.size()))
               .first->second);
  });

  // The validate() verdict: the first problem in id order, then outputs.
  // Inputs older than their reader rule out cycles, so no separate cycle
  // check is needed.
  error = [&]() -> std::optional<std::string> {
    for (NodeId id = 0; id < n; ++id) {
      const std::string& nm = names[id];
      const auto ins = inputs.row(id);
      if (nm.empty()) return util::format("node %u has an empty name", id);
      if (nameIndex.find(nm)->second != id)
        return util::format("duplicate signal name '%s'", nm.c_str());
      if (kind[id] != OpKind::LoopSuper &&
          static_cast<int>(ins.size()) != arity(kind[id]))
        return util::format("node '%s' (%s): expects %d inputs, has %zu",
                            nm.c_str(), std::string(kindName(kind[id])).c_str(),
                            arity(kind[id]), ins.size());
      for (NodeId in : ins) {
        if (in >= n)
          return util::format("node '%s': input id %u out of range", nm.c_str(), in);
        if (in >= id)
          return util::format("node '%s': input '%s' is not older than the node "
                              "(graph must be built in topological order)",
                              nm.c_str(), names[in].c_str());
      }
      if (cycles[id] < 1)
        return util::format("node '%s': cycles=%d must be >= 1", nm.c_str(),
                            cycles[id]);
      // A conditional path must have an even number of components (pairs).
      if (oddPath[scope[id]])
        return util::format("node '%s': malformed branch path '%s'", nm.c_str(),
                            scopePaths[scope[id]].c_str());
    }
    for (const auto& [id, ext] : outputs)
      if (id >= n)
        return util::format("output '%s': node id %u out of range", ext.c_str(), id);
    return std::nullopt;
  }();
}

std::optional<std::vector<NodeId>> Dfg::topoOrder() const {
  const std::size_t n = size();
  std::vector<std::uint32_t> indeg(n);
  for (NodeId id = 0; id < n; ++id)
    indeg[id] = static_cast<std::uint32_t>(s_->inputs.row(id).size());

  std::vector<NodeId> ready;
  for (NodeId id = 0; id < n; ++id)
    if (indeg[id] == 0) ready.push_back(id);

  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (NodeId s : succs(id))
      if (--indeg[s] == 0) ready.push_back(s);
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
  const std::uint32_t sa = s_->scope[a];
  const std::uint32_t sb = s_->scope[b];
  if (sa == sb) return false;  // identical paths never diverge
  const auto ca = s_->scopeComp.row(sa);
  const auto cb = s_->scopeComp.row(sb);
  const std::size_t m = std::min(ca.size(), cb.size());
  for (std::size_t i = 0; i < m; ++i)
    if (ca[i] != cb[i]) return (i % 2) == 1;
  return false;
}

NodeId Dfg::findByName(std::string_view name) const {
  const auto it = s_->nameIndex.find(name);
  return it == s_->nameIndex.end() ? kNoNode : it->second;
}

}  // namespace mframe::dfg
