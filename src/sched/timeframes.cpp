#include "sched/timeframes.h"

#include <algorithm>
#include <stdexcept>

#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::sched {

namespace {

/// When a value becomes available: at `offsetNs` into control step `step`.
/// (step, 0) means "start of step". Ordered lexicographically.
struct Avail {
  int step = 1;
  double offsetNs = 0.0;
  bool operator<(const Avail& o) const {
    return step != o.step ? step < o.step : offsetNs < o.offsetNs;
  }
};

struct AsapEntry {
  int start = 1;   ///< start control step
  Avail avail;     ///< when the result can be consumed
};

/// Generic ASAP over an arbitrary precedence relation, used forwards for
/// ASAP and on the reversed graph for ALAP. `order` must list schedulable
/// nodes so that every node appears after all nodes `predsOf` returns for
/// it. Statically polymorphic over the accessor so the CSR span walks stay
/// allocation-free.
template <typename PredsOf>
std::vector<AsapEntry> asapCore(const dfg::Dfg& g,
                                const std::vector<dfg::NodeId>& order,
                                const PredsOf& predsOf, const Constraints& c) {
  std::vector<AsapEntry> entry(g.size());
  for (dfg::NodeId id : order) {
    const int cycles = g.node(id).cycles;
    Avail ready{1, 0.0};
    for (dfg::NodeId p : predsOf(id)) ready = std::max(ready, entry[p].avail);

    const double delay = g.node(id).effectiveDelayNs();
    AsapEntry e;
    const bool chainable = c.allowChaining && cycles == 1 && delay <= c.clockNs;
    if (chainable && ready.offsetNs + delay <= c.clockNs) {
      // Fits behind its predecessors within the same step.
      e.start = ready.step;
      e.avail = {ready.step, ready.offsetNs + delay};
      // A value finishing exactly at the clock edge is only consumable in
      // the next step.
      if (e.avail.offsetNs >= c.clockNs) e.avail = {ready.step + 1, 0.0};
    } else {
      e.start = ready.offsetNs > 0.0 ? ready.step + 1 : ready.step;
      if (chainable) {
        e.avail = {e.start, delay};
        if (e.avail.offsetNs >= c.clockNs) e.avail = {e.start + 1, 0.0};
      } else {
        e.avail = {e.start + cycles, 0.0};
      }
    }
    entry[id] = e;
  }
  return entry;
}

}  // namespace

int TimeFrames::upperBound(dfg::FuType t) const {
  const auto i = static_cast<std::size_t>(t);
  return std::max(asapPeak_[i], alapPeak_[i]);
}

void TimeFrames::widenTo(int cs) {
  if (cs < steps_)
    throw std::invalid_argument(util::format(
        "TimeFrames::widenTo(%d) below the laid-out %d steps", cs, steps_));
  const int shift = cs - steps_;
  for (TimeFrame& f : frames_)
    if (f.asap > 0) f.alap += shift;  // non-operation nodes keep {0, 0}
  steps_ = cs;
}

std::optional<TimeFrames> computeTimeFrames(const dfg::Dfg& g,
                                            const Constraints& c,
                                            std::string* error) {
  const trace::Span span("timeframes");
  trace::bump(trace::Counter::TimeframesBuilds);
  TimeFrames tf;
  tf.frames_.assign(g.size(), {});

  const auto maybeOrder = g.topoOrder();
  if (!maybeOrder) {
    if (error) *error = "graph contains a cycle";
    return std::nullopt;
  }
  std::vector<dfg::NodeId> fwd;
  for (dfg::NodeId id : *maybeOrder)
    if (dfg::isSchedulable(g.node(id).kind)) fwd.push_back(id);

  const auto asap = asapCore(
      g, fwd, [&](dfg::NodeId id) { return g.opPreds(id); }, c);

  int critical = 1;
  for (dfg::NodeId id : fwd)
    critical = std::max(critical, asap[id].start + g.node(id).cycles - 1);
  tf.criticalSteps_ = critical;

  const int cs = c.timeSteps > 0 ? c.timeSteps : critical;
  if (critical > cs) {
    if (error)
      *error = util::format("time constraint %d < critical path %d steps", cs,
                            critical);
    return std::nullopt;
  }
  tf.steps_ = cs;

  // ALAP by running the same ASAP core on the reversed precedence relation,
  // then mirroring reversed steps back into forward time.
  std::vector<dfg::NodeId> rev(fwd.rbegin(), fwd.rend());
  const auto rasap = asapCore(
      g, rev, [&](dfg::NodeId id) { return g.opSuccs(id); }, c);

  for (dfg::NodeId id : fwd) {
    const dfg::Node& n = g.node(id);
    tf.frames_[id].asap = asap[id].start;
    tf.frames_[id].alap = cs - rasap[id].start - g.node(id).cycles + 2;
    if (tf.frames_[id].alap < tf.frames_[id].asap) {
      // The ALAP mirror disagrees with ASAP — a chaining-asymmetric packing
      // would make every downstream mobility negative. No such input is
      // known, but an assert here would vanish in release builds and let
      // schedulers read an inverted frame as garbage mobility; fail loudly
      // through the error channel instead.
      if (error)
        *error = util::format(
            "internal: inverted time frame for '%s' (asap %d > alap %d)",
            n.name.c_str(), tf.frames_[id].asap, tf.frames_[id].alap);
      return std::nullopt;
    }
  }

  // Peak same-type concurrency of the two extreme schedules.
  auto peak = [&](auto startOf, std::vector<int>& out) {
    std::vector<std::vector<int>> perStep(dfg::kNumFuTypes,
                                          std::vector<int>(cs + 2, 0));
    for (dfg::NodeId id : fwd) {
      const auto t = static_cast<std::size_t>(dfg::fuTypeOf(g.node(id).kind));
      for (int s = startOf(id); s < startOf(id) + g.node(id).cycles && s <= cs; ++s)
        ++perStep[t][s];
    }
    for (std::size_t t = 0; t < dfg::kNumFuTypes; ++t)
      out[t] = *std::max_element(perStep[t].begin(), perStep[t].end());
  };
  peak([&](dfg::NodeId id) { return tf.frames_[id].asap; }, tf.asapPeak_);
  peak([&](dfg::NodeId id) { return tf.frames_[id].alap; }, tf.alapPeak_);

  return tf;
}

}  // namespace mframe::sched
