// Span recorder for the benchmark's traced runs.
//
// Every call the benchmark makes into a libmframe layer goes through
// Recorder::call, named after the module it enters ("core.mfsa",
// "sched.verify", ...). Untraced, call() is a direct invocation. Traced, it
// records a span (name, start, end, parent, request id) plus the deltas of
// the library's trace counters across the call. Spans stay in memory and
// are written as Chrome trace-event JSON when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

using CounterArray = std::array<std::uint64_t, mframe::trace::kNumCounters>;

CounterArray readCounters();

/// Per-layer totals over the traced passes.
struct LayerTotals {
  double busyS = 0;  ///< summed span durations
  double selfS = 0;  ///< busy minus the time covered by child spans
  /// Sum of the input sizes (ops) of the calls that did the named work,
  /// the denominators of the per-op counters.
  double mfsaOpRuns = 0;  ///< ops x mfsa runs, per call
  double mfsOps = 0;      ///< ops of calls that evaluated MFS move frames
  CounterArray counters{};
};

class Recorder {
 public:
  struct Span {
    const char* name = nullptr;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;   ///< index of the enclosing span, -1 for a root
    int request = -1;  ///< request id the span belongs to, -1 for none
    int position = -1; ///< the request's position in its pass
  };

  /// Start recording spans (and enable the library's counters).
  void startTracing();
  void stopTracing();

  /// Run `f` as one call into `layer`. `ops` is the size of the design the
  /// call works on (0 when not meaningful); it feeds the per-op counters.
  template <class F>
  decltype(auto) call(const char* layer, std::size_t ops, F&& f) {
    if (!tracing_) return std::forward<F>(f)();
    const Scope scope(*this, layer, ops);
    return std::forward<F>(f)();
  }

  /// Open/close the root span of one request (one design through a flow).
  /// `position` identifies the request within its pass.
  void beginRequest(int position);
  void endRequest();

  std::size_t mark() const { return spans_.size(); }

  /// Per-layer totals of the spans recorded since `from` (a mark()),
  /// skipping requests whose position is in `skipPositions`.
  std::map<std::string, LayerTotals> totals(
      std::size_t from, const std::vector<int>& skipPositions = {}) const;

  /// Share of request time covered by layer spans, over spans since `from`.
  double coverage(std::size_t from) const;

  /// Chrome trace-event JSON of every recorded span.
  std::string chromeJson() const;

 private:
  class Scope {
   public:
    Scope(Recorder& r, const char* name, std::size_t ops);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder& r_;
    int index_;
    std::size_t ops_;
    CounterArray before_;
  };

  int open(const char* name);
  void close(int index);
  std::int64_t nowNs() const;

  bool tracing_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  /// Counter deltas and ops of each layer span, parallel to spans_.
  std::vector<std::pair<CounterArray, std::size_t>> work_;
  int current_ = -1;
  int nextRequest_ = 0;
  int request_ = -1;
  int position_ = -1;
};

}  // namespace perfbench
