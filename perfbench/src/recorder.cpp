#include "recorder.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace trace = mframe::trace;

CounterArray readCounters() {
  CounterArray a{};
  for (int i = 0; i < trace::kNumCounters; ++i)
    a[static_cast<std::size_t>(i)] =
        trace::counterValue(static_cast<trace::Counter>(i));
  return a;
}

void Recorder::startTracing() {
  tracing_ = true;
  trace::enableCounters(true);
}

void Recorder::stopTracing() {
  tracing_ = false;
  trace::enableCounters(false);
}

std::int64_t Recorder::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Recorder::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = current_;
  s.request = request_;
  s.position = position_;
  s.startNs = nowNs();
  spans_.push_back(s);
  work_.emplace_back();
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Recorder::close(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.endNs = nowNs();
  current_ = s.parent;
}

Recorder::Scope::Scope(Recorder& r, const char* name, std::size_t ops)
    : r_(r), index_(r.open(name)), ops_(ops), before_(readCounters()) {}

Recorder::Scope::~Scope() {
  const CounterArray after = readCounters();
  auto& [delta, ops] = r_.work_[static_cast<std::size_t>(index_)];
  for (std::size_t i = 0; i < delta.size(); ++i)
    delta[i] = after[i] - before_[i];
  ops = ops_;
  r_.close(index_);
}

void Recorder::beginRequest(int position) {
  if (!tracing_) return;
  request_ = nextRequest_++;
  position_ = position;
  open("request");
}

void Recorder::endRequest() {
  if (!tracing_ || request_ < 0) return;
  close(current_);
  request_ = -1;
  position_ = -1;
}

std::map<std::string, LayerTotals> Recorder::totals(
    std::size_t from, const std::vector<int>& skipPositions) const {
  std::vector<std::int64_t> childNs(spans_.size(), 0);
  for (std::size_t i = from; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      childNs[static_cast<std::size_t>(spans_[i].parent)] +=
          spans_[i].endNs - spans_[i].startNs;

  std::map<std::string, LayerTotals> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::find(skipPositions.begin(), skipPositions.end(), s.position) !=
        skipPositions.end())
      continue;
    LayerTotals& t = out[s.name];
    const std::int64_t dur = s.endNs - s.startNs;
    t.busyS += static_cast<double>(dur) * 1e-9;
    t.selfS += static_cast<double>(dur - childNs[i]) * 1e-9;
    const auto& [delta, ops] = work_[i];
    for (std::size_t k = 0; k < delta.size(); ++k) t.counters[k] += delta[k];
    const auto runs = delta[static_cast<std::size_t>(trace::Counter::MfsaRuns)];
    t.mfsaOpRuns += static_cast<double>(ops) * static_cast<double>(runs);
    if (delta[static_cast<std::size_t>(trace::Counter::LiapunovCellEvals)] > 0)
      t.mfsOps += static_cast<double>(ops);
  }
  return out;
}

double Recorder::coverage(std::size_t from) const {
  double requestNs = 0;
  double coveredNs = 0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.endNs - s.startNs);
    if (s.parent < 0 && s.request >= 0)
      requestNs += dur;
    else if (s.parent >= 0 &&
             spans_[static_cast<std::size_t>(s.parent)].parent < 0 &&
             s.request >= 0)
      coveredNs += dur;  // layer spans directly under a request root
  }
  return requestNs > 0 ? coveredNs / requestNs : 0.0;
}

std::string Recorder::chromeJson() const {
  std::string out = "{\"traceEvents\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d, \"request\": %d}}",
                  i ? ",\n" : "", s.name, static_cast<double>(s.startNs) / 1e3,
                  static_cast<double>(s.endNs - s.startNs) / 1e3, i, s.parent,
                  s.request);
    out += buf;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

}  // namespace perfbench
