#include "dfg/builder.h"

#include "util/strings.h"

namespace mframe::dfg {

Builder::Builder(std::string name) {
  c_.name = std::move(name);
  intern("");  // scope 0 is the unconditional path
}

Builder::Builder(const Dfg& g) : c_(*g.s_) {
  for (std::uint32_t s = 0; s < c_.scopePaths.size(); ++s)
    scopeIds_.emplace(c_.scopePaths[s], s);
  if (c_.scopePaths.empty()) intern("");  // the empty graph
}

std::uint32_t Builder::intern(const std::string& path) {
  const auto [it, inserted] =
      scopeIds_.try_emplace(path, static_cast<std::uint32_t>(c_.scopePaths.size()));
  if (inserted) c_.scopePaths.push_back(path);
  return it->second;
}

NodeId Builder::append(OpKind kind, std::string name, int cycles, double delayNs,
                       std::uint32_t scope, long constValue, int width) {
  const auto id = static_cast<NodeId>(c_.kind.size());
  c_.kind.push_back(kind);
  c_.names.push_back(std::move(name));
  c_.inputs.off.push_back(static_cast<std::uint32_t>(c_.inputs.edges.size()));
  c_.cycles.push_back(cycles);
  c_.delayNs.push_back(delayNs);
  c_.scope.push_back(scope);
  c_.constValue.push_back(constValue);
  c_.width.push_back(width);
  return id;
}

NodeId Builder::input(std::string name, int width) {
  return append(OpKind::Input, std::move(name), 1, -1.0, 0, 0, width);
}

NodeId Builder::constant(long value, std::string name) {
  return append(OpKind::Const, std::move(name), 1, -1.0, 0, value, 0);
}

NodeId Builder::op(OpKind kind, std::vector<NodeId> inputs, std::string name,
                   int cycles, double delayNs) {
  c_.inputs.edges.insert(c_.inputs.edges.end(), inputs.begin(), inputs.end());
  return append(kind, std::move(name), cycles, delayNs, intern(branchScope_), 0, 0);
}

NodeId Builder::copy(const Node& like, std::string name,
                     std::vector<NodeId> inputs) {
  c_.inputs.edges.insert(c_.inputs.edges.end(), inputs.begin(), inputs.end());
  return append(like.kind, std::move(name), like.cycles, like.delayNs,
                intern(like.branchPath), like.constValue, like.width);
}

void Builder::pushBranch(const std::string& condId, const std::string& armId) {
  if (!branchScope_.empty()) branchScope_ += '.';
  branchScope_ += condId + '.' + armId;
}

void Builder::popBranch() {
  auto parts = util::split(branchScope_, '.');
  if (parts.size() < 2) throw DfgError("popBranch without matching pushBranch");
  parts.pop_back();
  parts.pop_back();
  branchScope_ = util::join(parts, ".");
}

Dfg Builder::buildLenient() && {
  return Dfg(std::make_shared<const Dfg::Store>(std::move(c_)));
}

Dfg Builder::build() && {
  auto s = std::make_shared<const Dfg::Store>(std::move(c_));
  if (s->error) throw DfgError(s->name + ": " + *s->error);
  return Dfg(std::move(s));
}

}  // namespace mframe::dfg
