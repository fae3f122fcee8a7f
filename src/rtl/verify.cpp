#include "rtl/verify.h"

#include "analysis/rtl_rules.h"
#include "trace/trace.h"

namespace mframe::rtl {

// Thin adapter over the structured RTL lint pass: the checking logic lives
// in analysis::lintDatapath, which emits typed Diagnostics; this legacy
// entry point keeps the historical string contract (same messages, same
// order, same early-out on binding failures).
std::vector<std::string> verifyDatapath(const Datapath& d,
                                        const sched::Constraints& c,
                                        DesignStyle style) {
  const trace::Span span("verify.datapath");
  return analysis::lintDatapath(d, c, style).messages();
}

}  // namespace mframe::rtl
