// Output-sensitive conflict search for the occupancy checks of the schedule
// and datapath verifiers (SCH007, RTL005, RTL007).
//
// Comparing every pair of items that share a unit is quadratic per FU
// column, ALU or register, which at 10^5 ops costs more than synthesis.
// Here items are bucketed by the control step they hold the unit in (or
// swept in birth order), so only items that really meet are compared:
// O(n log n + reported conflicts) per unit on well-formed inputs. The pair
// lists come back sorted, i.e. in i-outer/j-inner order over the caller's
// list, which fixes the order of the diagnostics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "alloc/lifetimes.h"
#include "dfg/dfg.h"
#include "sched/schedule.h"

namespace mframe::analysis {

/// Positions (i, j), i < j, into the caller's item list.
using IndexPair = std::pair<std::uint32_t, std::uint32_t>;

/// Pairs of `ops` positions that hold one unit in a common step and are not
/// mutually exclusive in `g`, sorted and duplicate-free. An op holds the unit
/// in steps [start, start + cycles) of `s`, or only in its start step when
/// the unit is structurally `pipelined`; with latency > 0 each step is
/// folded to (step - 1) mod latency.
std::vector<IndexPair> occupancyConflicts(const dfg::Dfg& g,
                                          const sched::Schedule& s,
                                          const std::vector<dfg::NodeId>& ops,
                                          bool pipelined, int latency);

/// Pairs of `packed` positions whose lifetimes overlap by
/// alloc::Lifetime::overlaps, sorted. A sweep in birth order that keeps the
/// lifetimes still alive: exact for any integers, degenerate (birth ==
/// death) and inverted lifetimes included.
std::vector<IndexPair> overlappingLifetimes(
    const std::vector<alloc::Lifetime>& lifetimes,
    const std::vector<std::size_t>& packed);

}  // namespace mframe::analysis
