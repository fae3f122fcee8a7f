// ASAP/ALAP time-frame analysis and mobilities (Section 3.2, steps 1-2),
// extended for multicycle operations (Section 5.3: an operation occupies
// `cycles` consecutive control steps) and chaining (Section 5.4: frames are
// "determined based on the given execution time of operations and the length
// of control step clock T").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dfg/dfg.h"
#include "sched/schedule.h"

namespace mframe::sched {

/// Per-operation time frame. Steps are 1-based start steps; an operation
/// with `cycles` k scheduled at step s occupies [s, s+k-1].
struct TimeFrame {
  int asap = 0;
  int alap = 0;
  int mobility() const { return alap - asap; }
};

/// The result of frame analysis over a whole DFG.
class TimeFrames {
 public:
  const TimeFrame& of(dfg::NodeId id) const { return frames_[id]; }
  int asap(dfg::NodeId id) const { return frames_[id].asap; }
  int alap(dfg::NodeId id) const { return frames_[id].alap; }
  int mobility(dfg::NodeId id) const { return frames_[id].mobility(); }

  /// Length of the critical path in control steps (the minimum feasible cs).
  int criticalSteps() const { return criticalSteps_; }

  /// The cs these frames were laid out for.
  int steps() const { return steps_; }

  /// Re-target the frames to `cs` control steps without re-deriving them.
  /// ASAP and the reversed ASAP do not depend on cs, and ALAP is
  /// cs - rasap - cycles + 2, so every ALAP (and mobility) shifts by the same
  /// amount: priority order and the peak bounds are unchanged. Only widening
  /// is allowed (cs >= steps()), which can never invert a valid frame; a
  /// narrower cs throws std::invalid_argument.
  void widenTo(int cs);

  /// Peak same-type concurrency of the ASAP (resp. ALAP) schedule; the paper
  /// uses max(ASAP, ALAP) as the FU upper bound when the user gives none.
  const std::vector<int>& asapPeak() const { return asapPeak_; }
  const std::vector<int>& alapPeak() const { return alapPeak_; }
  int upperBound(dfg::FuType t) const;

  friend std::optional<TimeFrames> computeTimeFrames(const dfg::Dfg& g,
                                                     const Constraints& c,
                                                     std::string* error);

 private:
  std::vector<TimeFrame> frames_;
  int criticalSteps_ = 0;
  int steps_ = 0;
  std::vector<int> asapPeak_ = std::vector<int>(dfg::kNumFuTypes, 0);
  std::vector<int> alapPeak_ = std::vector<int>(dfg::kNumFuTypes, 0);
};

/// Compute ASAP/ALAP frames of every schedulable operation within
/// c.timeSteps control steps. Honors multicycle durations; when
/// c.allowChaining is set, dependent operations may share a step as long as
/// the accumulated combinational delay fits in c.clockNs.
///
/// Returns std::nullopt (and fills *error if given) when the graph cannot
/// meet the time constraint.
std::optional<TimeFrames> computeTimeFrames(const dfg::Dfg& g,
                                            const Constraints& c,
                                            std::string* error = nullptr);

}  // namespace mframe::sched
