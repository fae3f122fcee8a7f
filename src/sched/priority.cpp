#include "sched/priority.h"

#include <algorithm>

namespace mframe::sched {

namespace {

/// Latest completion step among scheduled-time predecessors, measured on the
/// ASAP schedule — "earlier predecessors (in terms of control steps)" get
/// higher priority (Section 5.3 tie-break).
int predReadyStep(const dfg::Dfg& g, const TimeFrames& tf, dfg::NodeId id) {
  int ready = 0;
  for (dfg::NodeId p : g.opPreds(id))
    ready = std::max(ready, tf.asap(p) + g.node(p).cycles - 1);
  return ready;
}

}  // namespace

std::vector<dfg::NodeId> priorityOrder(const dfg::Dfg& g, const TimeFrames& tf,
                                       PriorityRule rule) {
  const auto opsSpan = g.operations();
  std::vector<dfg::NodeId> ops(opsSpan.begin(), opsSpan.end());
  if (rule == PriorityRule::InsertionOrder) return ops;

  const bool reverseRule = rule == PriorityRule::Mobility;
  std::stable_sort(ops.begin(), ops.end(), [&](dfg::NodeId a, dfg::NodeId b) {
    // Outer sweep: ALAP control step, first step first.
    if (tf.alap(a) != tf.alap(b)) return tf.alap(a) < tf.alap(b);

    const int ma = tf.mobility(a);
    const int mb = tf.mobility(b);
    const int ca = g.node(a).cycles;
    const int cb = g.node(b).cycles;
    if (ma != mb) {
      // Section 5.3: for two multicycle operations whose mobility gap is
      // smaller than their duration, reverse the mobility rule.
      if (reverseRule && ca > 1 && cb > 1 && std::abs(ma - mb) < std::max(ca, cb))
        return ma > mb;
      return ma < mb;
    }
    // Tie-break: earlier predecessors first.
    const int ra = predReadyStep(g, tf, a);
    const int rb = predReadyStep(g, tf, b);
    if (ra != rb) return ra < rb;
    return a < b;
  });
  return ops;
}

}  // namespace mframe::sched
