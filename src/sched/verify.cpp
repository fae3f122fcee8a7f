#include "sched/verify.h"

#include "analysis/sched_rules.h"
#include "trace/trace.h"

namespace mframe::sched {

// Thin adapter over the structured schedule lint pass: the checking logic
// lives in analysis::lintSchedule, which emits typed Diagnostics; this
// legacy entry point keeps the historical string contract (same messages,
// same order, same early-out on incomplete placements).
std::vector<std::string> verifySchedule(const Schedule& s, const Constraints& c) {
  const trace::Span span("verify.schedule");
  return analysis::lintSchedule(s, c).messages();
}

}  // namespace mframe::sched
