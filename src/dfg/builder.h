// Fluent construction API for DFGs — the only way to make or edit one.
//
//   Builder b("diffeq");
//   auto x  = b.input("x");
//   auto dx = b.input("dx");
//   auto t1 = b.mul(x, dx, "t1");
//   b.output(t1, "xo");
//   Dfg g = std::move(b).build();   // validates; throws on malformed graphs
//
// To edit a graph, start a Builder from it (same node ids), change nodes with
// the set* calls or append new ones, and build again; the source graph is
// left untouched.
#pragma once

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfg/dfg.h"

namespace mframe::dfg {

/// Thrown by Builder::build() (and parse()) on malformed graphs.
class DfgError : public std::runtime_error {
 public:
  explicit DfgError(const std::string& what) : std::runtime_error(what) {}
};

class Builder {
 public:
  explicit Builder(std::string name);

  /// Start from every node (same ids), output and the name of `g`.
  explicit Builder(const Dfg& g);

  /// `width` declares the signal's bit width (0 = unspecified; the dataflow
  /// analyses then assume the machine word width).
  NodeId input(std::string name, int width = 0);
  NodeId constant(long value, std::string name);

  /// Generic operation node. `cycles`/`delayNs` override the defaults; the
  /// current branch scope (see pushBranch) is recorded on the node. Input
  /// ids are checked at build time, so buildLenient keeps dangling or
  /// forward references as given.
  NodeId op(OpKind kind, std::vector<NodeId> inputs, std::string name,
            int cycles = 1, double delayNs = -1.0);

  /// Append a node with every attribute of `like` (a node of any graph)
  /// except its name and inputs, which are `name` and `inputs`.
  NodeId copy(const Node& like, std::string name, std::vector<NodeId> inputs);

  // Arity-2 conveniences.
  NodeId add(NodeId a, NodeId b, std::string name) { return op(OpKind::Add, {a, b}, std::move(name)); }
  NodeId sub(NodeId a, NodeId b, std::string name) { return op(OpKind::Sub, {a, b}, std::move(name)); }
  NodeId mul(NodeId a, NodeId b, std::string name, int cycles = 1) {
    return op(OpKind::Mul, {a, b}, std::move(name), cycles);
  }
  NodeId div(NodeId a, NodeId b, std::string name) { return op(OpKind::Div, {a, b}, std::move(name)); }
  NodeId band(NodeId a, NodeId b, std::string name) { return op(OpKind::And, {a, b}, std::move(name)); }
  NodeId bor(NodeId a, NodeId b, std::string name) { return op(OpKind::Or, {a, b}, std::move(name)); }
  NodeId bxor(NodeId a, NodeId b, std::string name) { return op(OpKind::Xor, {a, b}, std::move(name)); }
  NodeId lt(NodeId a, NodeId b, std::string name) { return op(OpKind::Lt, {a, b}, std::move(name)); }
  NodeId gt(NodeId a, NodeId b, std::string name) { return op(OpKind::Gt, {a, b}, std::move(name)); }
  NodeId eq(NodeId a, NodeId b, std::string name) { return op(OpKind::Eq, {a, b}, std::move(name)); }
  NodeId inc(NodeId a, std::string name) { return op(OpKind::Inc, {a}, std::move(name)); }
  NodeId bnot(NodeId a, std::string name) { return op(OpKind::Not, {a}, std::move(name)); }

  void output(NodeId id, std::string externalName) {
    c_.outputs.emplace_back(id, std::move(externalName));
  }

  /// Enter / leave a conditional arm. Nodes created inside carry the nested
  /// branch path, e.g. pushBranch("c1","t") ... popBranch(). Ops in sibling
  /// arms of the same conditional become mutually exclusive (Section 5.1).
  void pushBranch(const std::string& condId, const std::string& armId);
  void popBranch();

  // Edits of the graph name and of already-created nodes. Nothing is checked
  // until build time, so malformed values reach buildLenient's graph as set.
  void setName(std::string name) { c_.name = std::move(name); }
  void setCycles(NodeId id, int cycles) { c_.cycles[id] = cycles; }
  void setDelayNs(NodeId id, double delayNs) { c_.delayNs[id] = delayNs; }
  void setBranchPath(NodeId id, const std::string& path) { c_.scope[id] = intern(path); }
  void setWidth(NodeId id, int width) { c_.width[id] = width; }

  /// Validate and hand out the graph; throws DfgError on a malformed one.
  /// The builder is consumed.
  Dfg build() &&;

  /// Hand out the graph even when it is malformed (cyclic, dangling inputs,
  /// bad attributes); its validate() reports the problem. For lenient
  /// parsing and for the lint rules' fixtures. The builder is consumed.
  Dfg buildLenient() &&;

 private:
  NodeId append(OpKind kind, std::string name, int cycles, double delayNs,
                std::uint32_t scope, long constValue, int width);
  std::uint32_t intern(const std::string& path);

  Dfg::Columns c_;
  std::unordered_map<std::string, std::uint32_t> scopeIds_;
  std::string branchScope_;  // current path, "" at top level
};

}  // namespace mframe::dfg
