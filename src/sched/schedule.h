// Schedule container and the constraint bundle shared by the schedulers
// (MFS, MFSA, baselines) and the schedule verifier.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dfg/dfg.h"

namespace mframe::sched {

/// Constraints and feature switches for one scheduling run. This mirrors the
/// "constraints and specifications" the user hands SYNTEST in Section 6.
struct Constraints {
  /// Time constraint: total number of control steps (cs). Required for
  /// time-constrained runs; in resource-constrained mode it is treated as an
  /// upper bound that may be raised by the scheduler.
  int timeSteps = 0;

  /// Per-FU-type resource bounds (max_j). Types absent from the map are
  /// bounded by the ASAP/ALAP concurrency upper bound (Section 3.2 step 2).
  std::map<dfg::FuType, int> fuLimit;

  /// Section 5.4: allow chained data-dependent operations within one control
  /// step, subject to the clock period below.
  bool allowChaining = false;

  /// Control-step clock period in nanoseconds (the "length of control step
  /// clock (T)" of Section 5.4). Only consulted when allowChaining is true.
  double clockNs = 100.0;

  /// Section 5.5.2: functional-pipelining latency L (initiation interval).
  /// 0 disables folding. With L > 0, operations in control steps t and
  /// t + k*L execute concurrently and must not share an FU instance.
  int latency = 0;

  /// Section 5.5.1: FU types implemented as multi-stage pipelined units.
  /// Operations on such a unit conflict only when they start in the same
  /// control step (one initiation per step).
  std::set<dfg::FuType> pipelinedFus;
};

/// Where one operation landed on the paper's 2-D placement table: a control
/// step (vertical axis) and an FU-instance column of its type (horizontal).
struct Placement {
  int step = 0;    ///< 1-based start control step
  int column = 0;  ///< 1-based FU instance within the op's type
};

/// A (partial or complete) schedule: the placement of every operation on the
/// grid, plus the achieved number of control steps.
///
/// The schedule holds a copy of the graph it was built against (an O(1)
/// copy sharing the graph's storage), so a result object stays valid after
/// the caller's DFG goes out of scope (e.g. `runMfs(makeGraph(), opts)`). A
/// default Schedule has no graph at all.
class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(const dfg::Dfg& g)
      : graph_(std::make_shared<const dfg::Dfg>(g)),
        place_(g.size()),
        placed_(g.size(), false) {}

  const dfg::Dfg& graph() const { return *graph_; }
  std::shared_ptr<const dfg::Dfg> sharedGraph() const { return graph_; }

  void setNumSteps(int cs) { numSteps_ = cs; }
  int numSteps() const { return numSteps_; }

  void place(dfg::NodeId id, int step, int column);
  void unplace(dfg::NodeId id);
  bool isPlaced(dfg::NodeId id) const { return placed_[id]; }
  const Placement& at(dfg::NodeId id) const { return place_[id]; }
  int stepOf(dfg::NodeId id) const { return place_[id].step; }
  int columnOf(dfg::NodeId id) const { return place_[id].column; }
  /// Last step the operation occupies (start + cycles - 1). The result is
  /// available at the end of this step.
  int endStepOf(dfg::NodeId id) const {
    return place_[id].step + graph_->node(id).cycles - 1;
  }

  /// Number of placed operations.
  std::size_t placedCount() const;

  /// Highest column in use per FU type == number of FU instances required.
  std::map<dfg::FuType, int> fuCount() const;

  /// Maximum same-type concurrency per step (ignores columns); useful to
  /// check balance independently of the column assignment.
  std::map<dfg::FuType, int> peakConcurrency() const;

  /// Operations whose execution interval covers `step`.
  std::vector<dfg::NodeId> opsInStep(int step) const;

  /// Map node -> start step for the placed subset (for DOT export etc.).
  std::map<dfg::NodeId, int> stepMap() const;

  /// Human-readable dump (one line per step).
  std::string toString() const;

 private:
  std::shared_ptr<const dfg::Dfg> graph_;
  int numSteps_ = 0;
  std::vector<Placement> place_;
  std::vector<bool> placed_;
};

}  // namespace mframe::sched
