// Move Frame Scheduling (Section 3): a fast balanced scheduler under a time
// constraint, or a latency minimizer under resource constraints, driven by
// the static Liapunov function over the 2-D placement tables.
//
// Supports every Section-5 scheduling feature through sched::Constraints:
// mutually exclusive (conditional) operations, multicycle operations,
// chaining, structural pipelining and functional pipelining; loops are
// handled by folding the DFG first (dfg::foldLoopNest).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/liapunov.h"
#include "sched/priority.h"
#include "sched/schedule.h"

namespace mframe::core {

struct MfsOptions {
  sched::Constraints constraints;

  /// Time-constrained (fixed cs, minimize/balance FUs) or
  /// resource-constrained (fixed FU limits, minimize cs).
  MfsLiapunov::Mode mode = MfsLiapunov::Mode::TimeConstrained;

  sched::PriorityRule priorityRule = sched::PriorityRule::Mobility;

  /// Move-frame search strategy; Auto = Exhaustive on small graphs,
  /// Frontier (same result, far fewer probes) on large ones.
  MoveFrameMode frameMode = MoveFrameMode::Auto;

  /// Operations to place first, ahead of the computed priority order (the
  /// tune loop seeds this with its criticality ranking so the critical cone
  /// ops grab the best grid slots). Unknown/duplicate ids are ignored; the
  /// combined list is still made topologically consistent before use.
  std::vector<dfg::NodeId> priorityHint;

  /// Safety bound on "local rescheduling" restarts (Section 3.2: on an empty
  /// move frame, current_j is increased and placement redone).
  int maxRestarts = 10000;

  /// Upper bound on the schedule length: the resource-constrained search
  /// stops here, and a larger time constraint is refused.
  int maxStepsCap = 4096;

  /// Record the Liapunov trace (one value per move) for the monotonicity
  /// property tests; costs a little memory.
  bool traceLiapunov = true;
};

struct MfsResult {
  bool feasible = false;
  std::string error;

  sched::Schedule schedule;
  int steps = 0;                        ///< achieved control steps
  std::map<dfg::FuType, int> fuCount;   ///< FU instances used per type
  int restarts = 0;                     ///< local-rescheduling count

  /// V(X(k)) after every move, starting with the initial energy. The
  /// Liapunov theorem demands this sequence be strictly decreasing.
  std::vector<double> liapunovTrace;
};

/// Run MFS on `g`. The graph must validate; in time-constrained mode
/// opt.constraints.timeSteps must be >= the critical path and <= maxStepsCap.
/// Both modes first run unplaceableOp and fail at once when it finds an op.
MfsResult runMfs(const dfg::Dfg& g, const MfsOptions& opt);

/// An operation that no grid cell can hold, whatever the schedule length.
struct Unplaceable {
  dfg::NodeId op = dfg::kNoNode;
  std::string reason;  ///< names the op and the bound it breaks
};

/// Infeasibility proof in one O(V) pass, run before any step is tried: the
/// first operation (by id) that the placement code rejects at every cs, or
/// nullopt. It checks exactly the cases placement rejects independently of
/// the step and of the other operations:
///  * chaining on, a single-cycle op whose delay exceeds clockNs — it cannot
///    even fill a step alone (FrameCalculator::depOk / depWindow);
///  * latency > 0, an op whose cycles exceed the latency on a type outside
///    pipelinedFus — it would overlap its own next initiation
///    (ColumnOccupancy::canPlace);
///  * an op whose type has a fuLimit <= 0.
/// nullopt is no promise of feasibility; the step sweep still decides.
std::optional<Unplaceable> unplaceableOp(const dfg::Dfg& g,
                                         const sched::Constraints& c);

/// Convenience: topologically consistent priority order — the paper's
/// priority list, refined so no operation precedes one of its predecessors
/// (required once chaining/multicycle frames let priorities cross
/// dependencies). Exposed for tests.
///
/// Returns nullopt (with a message in `error`, when given) if the list can
/// never be completed — the priority list omits a predecessor of a listed
/// operation, or the graph has a cycle. Previously this was only an assert,
/// so release builds silently emitted a truncated order.
std::optional<std::vector<dfg::NodeId>> topoConsistentOrder(
    const dfg::Dfg& g, const std::vector<dfg::NodeId>& priority,
    std::string* error = nullptr);

}  // namespace mframe::core
