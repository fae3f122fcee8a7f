// The data-flow graph (DFG) intermediate representation.
//
// A Dfg is a DAG of operations. Each node produces one named signal; data
// edges are the `inputs` lists. Input and Const nodes anchor primary inputs
// and literals; any node can be marked a primary output. Nodes carry the
// attributes the Section-5 extensions need: a cycle count (multicycle
// operations), an optional combinational delay override (chaining) and a
// branch path encoding conditional nesting (mutual exclusion).
//
// A built Dfg is immutable and stores everything once: each node attribute
// lives in one id-indexed array, inputs and all derived adjacency
// (successors, schedulable predecessors/successors) are CSR — one offset
// array plus one flat edge array each — a node's branch path is an interned
// scope id, and the name index keys string_views into the one names array.
// The scheduler and dataflow inner loops walk contiguous memory and the
// accessors return non-allocating spans or views. All of it sits behind one
// shared pointer to const, so copying a Dfg costs O(1) and copies may be
// read from any number of threads.
//
// dfg::Builder is the only way to make or edit a graph (dfg::parse uses it
// too). It lays out every derived index and computes the validate() verdict
// in one id-order sweep when it builds the graph.
//
// CSR invariant: node ids are topological (validate() rejects any input id
// >= the node's own id), so edge arrays are acyclic by construction.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dfg/op.h"

namespace mframe::dfg {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// Read-only view of one DFG node, built on demand by Dfg::node and
/// Dfg::nodes. Its fields alias the graph's arrays: a view stays valid while
/// the graph, or any copy of it, is alive.
struct Node {
  NodeId id;
  OpKind kind;
  const std::string& name;         ///< name of the produced signal (unique)
  std::span<const NodeId> inputs;  ///< data predecessors, in operand order

  int cycles;                      ///< execution time in control steps (>= 1)
  double delayNs;                  ///< combinational delay; < 0 => defaultDelayNs(kind)

  /// Conditional-nesting path, e.g. "" (unconditional), "c1.t", "c1.e.c2.t".
  /// Elements alternate conditional-id and arm-id separated by '.'; two nodes
  /// are mutually exclusive iff their paths first differ at an arm element
  /// under the same conditional (see Dfg::mutuallyExclusive).
  const std::string& branchPath;

  long constValue;                 ///< literal value for Const nodes

  /// Declared bit width of the produced signal; 0 = unspecified (the
  /// machine word width applies). On Input nodes this bounds the value range
  /// the dataflow analyses assume; on operations it pins the result width.
  int width;

  double effectiveDelayNs() const {
    return delayNs >= 0 ? delayNs : defaultDelayNs(kind);
  }
};

/// Immutable DAG of operations. Make one with dfg::Builder or dfg::parse.
class Dfg {
  struct Store;

 public:
  /// The empty graph.
  Dfg();

  const std::string& name() const { return s_->name; }
  std::size_t size() const { return s_->kind.size(); }

  Node node(NodeId id) const { return s_->node(id); }

  /// All nodes in id order, as views, for range-for.
  class NodeRange {
   public:
    class iterator {
     public:
      iterator(const Store* s, NodeId id) : s_(s), id_(id) {}
      Node operator*() const { return s_->node(id_); }
      iterator& operator++() {
        ++id_;
        return *this;
      }
      bool operator==(const iterator& o) const { return id_ == o.id_; }

     private:
      const Store* s_;
      NodeId id_;
    };
    explicit NodeRange(const Store* s) : s_(s) {}
    iterator begin() const { return {s_, 0}; }
    iterator end() const { return {s_, static_cast<NodeId>(s_->kind.size())}; }

   private:
    const Store* s_;
  };
  NodeRange nodes() const { return NodeRange(s_.get()); }

  /// Primary outputs: (node, external name), in declaration order.
  const std::vector<std::pair<NodeId, std::string>>& outputs() const {
    return s_->outputs;
  }

  /// Data successors of `id` (consumers of its signal), in consumer id
  /// order, duplicate edges preserved.
  std::span<const NodeId> succs(NodeId id) const {
    return s_->succ.row(id);
  }

  /// Schedulable (operation) predecessors/successors only — Input/Const
  /// nodes filtered out. These define the precedence constraints the
  /// schedulers enforce. Non-allocating views.
  std::span<const NodeId> opPreds(NodeId id) const {
    return s_->opPred.row(id);
  }
  std::span<const NodeId> opSuccs(NodeId id) const {
    return s_->opSucc.row(id);
  }

  /// Ids of all schedulable nodes, in insertion order.
  std::span<const NodeId> operations() const { return s_->operations; }

  /// Count of schedulable nodes of the given FU type.
  std::size_t countOfType(FuType t) const {
    return s_->typeCount[static_cast<std::size_t>(t)];
  }

  /// A topological order over all nodes (inputs first). Empty optional if
  /// the graph has a cycle (only a Builder::buildLenient graph can).
  std::optional<std::vector<NodeId>> topoOrder() const;

  /// True if a and b can never execute in the same run: their branch paths
  /// diverge into different arms of the same conditional (Section 5.1).
  /// Compares interned component ids (no string splitting).
  bool mutuallyExclusive(NodeId a, NodeId b) const;

  /// True if `id` has an empty branch path: it runs in every execution, so
  /// it is mutually exclusive with no node.
  bool isUnconditional(NodeId id) const { return s_->scope[id] == 0; }

  /// Find a node by signal name; kNoNode if absent. Among duplicate names
  /// (a buildLenient graph) the oldest node wins.
  NodeId findByName(std::string_view name) const;

  /// Structural validation verdict, computed once when the graph was built:
  /// names unique and non-empty, input refs in range and older than their
  /// reader (so the graph is acyclic), arities match kinds, cycles >= 1,
  /// branch paths well formed, output ids in range. An error description,
  /// or std::nullopt when the graph is well-formed.
  const std::optional<std::string>& validate() const { return s_->error; }

 private:
  friend class Builder;

  /// One CSR adjacency: row(id) spans edges[off[id], off[id + 1]).
  struct Csr {
    std::vector<std::uint32_t> off{0};
    std::vector<NodeId> edges;
    std::span<const NodeId> row(NodeId id) const {
      return {edges.data() + off[id], off[id + 1] - off[id]};
    }
    /// Lay out `rows` rows; row r holds the ids edgesOf(r, push) pushes.
    template <typename EdgesOf>
    void fill(std::size_t rows, EdgesOf edgesOf);
  };

  /// The attributes a Builder writes, one id-indexed array each.
  struct Columns {
    std::string name;
    std::vector<OpKind> kind;
    std::vector<std::string> names;
    Csr inputs;
    std::vector<int> cycles;
    std::vector<double> delayNs;
    std::vector<std::uint32_t> scope;      ///< index into scopePaths
    std::vector<std::string> scopePaths;   ///< unique branch paths; [0] = ""
    std::vector<long> constValue;
    std::vector<int> width;
    std::vector<std::pair<NodeId, std::string>> outputs;
  };

  /// Columns plus every derived index, laid out once by the constructor.
  struct Store : Columns {
    explicit Store(Columns c);
    Store(const Store&) = delete;  // nameIndex points into this object

    Csr succ, opPred, opSucc;
    std::vector<NodeId> operations;
    std::size_t typeCount[kNumFuTypes] = {};
    /// Branch scopes split into interned component ids: scopeComp.row(s)
    /// lists scope s's components; the empty path has none.
    Csr scopeComp;
    std::unordered_map<std::string_view, NodeId> nameIndex;
    std::optional<std::string> error;

    Node node(NodeId id) const {
      return {id, kind[id], names[id], inputs.row(id), cycles[id], delayNs[id],
              scopePaths[scope[id]], constValue[id], width[id]};
    }
  };

  /// Publish a built store; counts one dfg.freezes (and its CSR edges).
  explicit Dfg(std::shared_ptr<const Store> s);

  std::shared_ptr<const Store> s_;
};

/// Two branch paths are mutually exclusive iff they first differ at an arm
/// component of the same conditional. Exposed for tests and the transforms.
bool pathsMutuallyExclusive(std::string_view a, std::string_view b);

}  // namespace mframe::dfg
