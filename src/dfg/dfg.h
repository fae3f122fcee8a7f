// The data-flow graph (DFG) intermediate representation.
//
// A Dfg is a DAG of operations. Each node produces one named signal; data
// edges are the `inputs` lists. Input and Const nodes anchor primary inputs
// and literals; any node can be marked a primary output. Nodes carry the
// attributes the Section-5 extensions need: a cycle count (multicycle
// operations), an optional combinational delay override (chaining) and a
// branch path encoding conditional nesting (mutual exclusion).
//
// Storage is arena-backed structure-of-arrays: node attributes live in
// parallel flat arrays and all adjacency (successors, schedulable
// predecessors/successors) is CSR — one offset array plus one flat edge
// array each — so the scheduler and dataflow inner loops walk contiguous
// memory and the accessors return non-allocating spans. The derived arrays
// are built by freeze(): Builder::build() and dfg::parse() freeze before
// handing the graph out, and any mutation (addNode, mutableNode) marks the
// graph unfrozen again. Adjacency accessors on an unfrozen graph throw —
// there is deliberately no lazy rebuild, because a hidden mutable cache
// under a const API is a data race the moment two threads share a cold
// graph (explore::parallelFor did exactly that).
//
// CSR invariant: node ids are topological (validate() rejects any input id
// >= the node's own id), so edge arrays are acyclic by construction and a
// single id-order sweep builds every derived index.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfg/op.h"

namespace mframe::dfg {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// One DFG node. Plain data; invariants are maintained by Dfg/Builder.
struct Node {
  NodeId id = kNoNode;
  OpKind kind = OpKind::Input;
  std::string name;             ///< name of the produced signal (unique)
  std::vector<NodeId> inputs;   ///< data predecessors, in operand order

  int cycles = 1;               ///< execution time in control steps (>= 1)
  double delayNs = -1.0;        ///< combinational delay; < 0 => defaultDelayNs(kind)

  /// Conditional-nesting path, e.g. "" (unconditional), "c1.t", "c1.e.c2.t".
  /// Elements alternate conditional-id and arm-id separated by '.'; two nodes
  /// are mutually exclusive iff their paths first differ at an arm element
  /// under the same conditional (see Dfg::mutuallyExclusive).
  std::string branchPath;

  long constValue = 0;          ///< literal value for Const nodes

  /// Declared bit width of the produced signal; 0 = unspecified (the
  /// machine word width applies). On Input nodes this bounds the value range
  /// the dataflow analyses assume; on operations it pins the result width.
  int width = 0;

  double effectiveDelayNs() const {
    return delayNs >= 0 ? delayNs : defaultDelayNs(kind);
  }
};

/// Immutable-after-freeze DAG of operations. Use dfg::Builder to construct,
/// or dfg::parse for the textual format — both freeze the graph before
/// returning it. Code that mutates a graph directly (transforms, loop
/// bookkeeping) must call freeze() again before using adjacency accessors.
class Dfg {
 public:
  Dfg() = default;
  explicit Dfg(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void setName(std::string n) { name_ = std::move(n); }

  /// Append a node; returns its id. The node's `inputs` must reference
  /// existing nodes (enforced in validate()). Marks the graph unfrozen.
  NodeId addNode(Node n);

  std::size_t size() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Mutable access to a node. Marks the graph unfrozen: the caller must
  /// freeze() again before adjacency or index accessors are usable.
  Node& mutableNode(NodeId id) {
    frozen_ = false;
    return nodes_[id];
  }

  /// Mark `id` as a primary output under the given external name.
  void markOutput(NodeId id, std::string externalName);
  const std::vector<std::pair<NodeId, std::string>>& outputs() const { return outputs_; }

  /// Build every derived index (CSR adjacency, SoA attribute mirrors, name
  /// table, interned branch scopes) in one id-order sweep. Idempotent on an
  /// already-frozen graph. O(nodes + edges).
  void freeze();
  bool frozen() const { return frozen_; }

  /// Data predecessors of `id` (its inputs). Convenience accessor; total.
  const std::vector<NodeId>& preds(NodeId id) const { return nodes_[id].inputs; }

  /// Data successors of `id` (consumers of its signal), in consumer id
  /// order, duplicate edges preserved. Frozen graphs only.
  std::span<const NodeId> succs(NodeId id) const {
    if (!frozen_) throwUnfrozen("succs");
    return {succEdges_.data() + succOff_[id], succOff_[id + 1] - succOff_[id]};
  }

  /// Schedulable (operation) predecessors/successors only — Input/Const
  /// nodes filtered out. These define the precedence constraints the
  /// schedulers enforce. Non-allocating views; frozen graphs only.
  std::span<const NodeId> opPreds(NodeId id) const {
    if (!frozen_) throwUnfrozen("opPreds");
    return {predEdges_.data() + predOff_[id], predOff_[id + 1] - predOff_[id]};
  }
  std::span<const NodeId> opSuccs(NodeId id) const {
    if (!frozen_) throwUnfrozen("opSuccs");
    return {opSuccEdges_.data() + opSuccOff_[id],
            opSuccOff_[id + 1] - opSuccOff_[id]};
  }

  /// Ids of all schedulable nodes, in insertion order. Frozen graphs only.
  std::span<const NodeId> operations() const {
    if (!frozen_) throwUnfrozen("operations");
    return operations_;
  }

  /// Count of schedulable nodes of the given FU type. Frozen graphs only.
  std::size_t countOfType(FuType t) const {
    if (!frozen_) throwUnfrozen("countOfType");
    return typeCount_[static_cast<std::size_t>(t)];
  }

  /// SoA attribute mirrors for the hot loops: one cache line of ints beats
  /// striding through 100+-byte Node records. Frozen graphs only.
  OpKind kindOf(NodeId id) const { return kind_[id]; }
  int cyclesOf(NodeId id) const { return cycles_[id]; }
  int widthOf(NodeId id) const { return width_[id]; }
  /// Resolved combinational delay (delayNs or the kind default).
  double delayOf(NodeId id) const { return delay_[id]; }

  /// A topological order over all nodes (inputs first). Empty optional if
  /// the graph has a cycle. Total: works on frozen and unfrozen graphs
  /// (validate() relies on it before the first freeze).
  std::optional<std::vector<NodeId>> topoOrder() const;

  /// True if a and b can never execute in the same run: their branch paths
  /// diverge into different arms of the same conditional (Section 5.1).
  /// Total; frozen graphs compare interned component ids (no splitting).
  bool mutuallyExclusive(NodeId a, NodeId b) const;

  /// True if `id` has an empty branch path: it runs in every execution, so
  /// it is mutually exclusive with no node. Total; frozen graphs read the
  /// interned scope (an empty path has no components).
  bool isUnconditional(NodeId id) const {
    if (!frozen_) return nodes_[id].branchPath.empty();
    return scopeOff_[scope_[id] + 1] == scopeOff_[scope_[id]];
  }

  /// Find a node by signal name; kNoNode if absent. Total; frozen graphs
  /// answer from a hash table, unfrozen graphs scan.
  NodeId findByName(std::string_view name) const;

  /// Full structural validation: ids consistent, names unique, input refs in
  /// range and acyclic, arities match kinds, cycles >= 1. Returns an error
  /// description, or std::nullopt when the graph is well-formed. Total.
  std::optional<std::string> validate() const;

 private:
  [[noreturn]] static void throwUnfrozen(const char* accessor);

  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::pair<NodeId, std::string>> outputs_;

  bool frozen_ = false;

  // CSR adjacency (offsets are size()+1; edge arrays are flat).
  std::vector<std::uint32_t> succOff_;
  std::vector<NodeId> succEdges_;
  std::vector<std::uint32_t> predOff_;     // schedulable preds
  std::vector<NodeId> predEdges_;
  std::vector<std::uint32_t> opSuccOff_;   // schedulable succs
  std::vector<NodeId> opSuccEdges_;

  // SoA attribute mirrors.
  std::vector<OpKind> kind_;
  std::vector<int> cycles_;
  std::vector<int> width_;
  std::vector<double> delay_;              // effectiveDelayNs, resolved

  std::vector<NodeId> operations_;
  std::size_t typeCount_[kNumFuTypes] = {};

  // Branch scopes, interned: scope_[id] indexes scopeOff_/scopeComp_, a CSR
  // of per-path component ids; equal paths share one scope id.
  std::vector<std::uint32_t> scope_;
  std::vector<std::uint32_t> scopeOff_;
  std::vector<std::uint32_t> scopeComp_;

  std::unordered_map<std::string, NodeId, NameHash, std::equal_to<>> nameIndex_;
};

/// Two branch paths are mutually exclusive iff they first differ at an arm
/// component of the same conditional. Exposed for tests and the transforms.
bool pathsMutuallyExclusive(std::string_view a, std::string_view b);

}  // namespace mframe::dfg
