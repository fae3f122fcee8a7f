#include "analysis/criticality/tune.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "analysis/validate/validate.h"
#include "cache/resynth.h"
#include "core/mfs.h"
#include "dfg/builder.h"
#include "dfg/transforms.h"
#include "explore/thread_pool.h"
#include "rtl/datapath.h"
#include "sched/stitch.h"
#include "sched/timeframes.h"
#include "sched/verify.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::analysis::criticality {

namespace {

/// The candidate strategies one iteration races (explore::parallelFor):
///   0  cone re-scheduled with observed delays against the derated clock
///   1  same, delays padded 25% (margin against mux growth after stitching)
///   2  cone re-scheduled with chaining disabled (break the long chains)
///   3  whole design re-scheduled with observed delays (the big hammer)
constexpr int kNumCandidates = 4;

struct Candidate {
  bool valid = false;
  sched::Schedule schedule;  ///< full-graph schedule (stitched or remapped)
  int steps = 0;
  double worstSlackNs = 0;
  bool stitchRefused = false;  ///< stitch verification refused the splice
};

struct Pipeline {
  rtl::Datapath dp;
  timing::TimingReport timing;
};

/// Synthesize + time one full schedule. Throws on datapath failure.
Pipeline runPipeline(const dfg::Dfg& g, const celllib::CellLibrary& lib,
                     const sched::Schedule& s, const TuneOptions& opt) {
  Pipeline p{rtl::buildDatapath(g, lib, s, rtl::bindByColumns(g, lib, s)), {}};
  timing::TimingOptions to;
  to.clockNs = opt.constraints.clockNs;
  to.clockSet = opt.clockSet;
  to.model = opt.model;
  to.nearCriticalFraction = opt.nearCriticalFraction;
  p.timing = timing::analyzeTiming(p.dp, to);
  return p;
}

/// Clock budget the cone scheduler may chain against: the control-step
/// period minus the register overheads (clk-to-q, setup, one bus hop) the
/// scheduler's chain accounting cannot see.
double deratedClock(const TuneOptions& opt) {
  const double derated = opt.constraints.clockNs -
                         (opt.model.regClkToQNs + opt.model.setupNs +
                          opt.model.busNs);
  return derated > 0 ? derated : opt.constraints.clockNs;
}

/// Re-check a full schedule, tolerating growth past the original time
/// constraint (tune trades steps for slack; the caller ranks on both).
bool scheduleOk(const sched::Schedule& s, const sched::Constraints& c) {
  sched::Constraints check = c;
  if (check.timeSteps != 0 && s.numSteps() > check.timeSteps)
    check.timeSteps = s.numSteps();
  return sched::verifySchedule(s, check).empty();
}

/// Copy placements from `src` (scheduled against a delay-modified twin of
/// `g`) onto a schedule owning `g` itself, so downstream datapath/STA/prove
/// stages see the original node attributes.
sched::Schedule remapOnto(const dfg::Dfg& g, const sched::Schedule& src) {
  sched::Schedule out(g);
  out.setNumSteps(src.numSteps());
  for (dfg::NodeId op : g.operations())
    out.place(op, src.stepOf(op), src.columnOf(op));
  return out;
}

}  // namespace

TuneResult tuneDesign(const dfg::Dfg& g, const celllib::CellLibrary& lib,
                      const TuneOptions& opt) {
  const trace::Span span("tune");
  TuneResult r;

  core::MfsOptions initial;
  initial.constraints = opt.constraints;
  if (initial.constraints.timeSteps <= 0) {
    // Default to the *chaining-aware* critical step count — exactly the
    // aggressive schedule the claimed node delays promise. When those claims
    // are optimistic the STA flags it and the loop below earns its keep.
    std::string err;
    const auto tf = sched::computeTimeFrames(g, initial.constraints, &err);
    if (!tf) {
      r.error = "cannot derive a time constraint: " + err;
      return r;
    }
    initial.constraints.timeSteps = tf->criticalSteps();
  }
  // Cache-aware: only the *initial* schedule goes through the cache — the
  // cone re-schedules below depend on per-iteration observed delays that
  // would thrash it.
  const core::MfsResult first = cache::cachedRunMfs(g, initial);
  if (!first.feasible) {
    r.error = "initial schedule infeasible: " + first.error;
    return r;
  }
  r.schedule = first.schedule;

  try {
    Pipeline p = runPipeline(g, lib, r.schedule, opt);
    r.datapath = std::move(p.dp);
    r.timing = std::move(p.timing);
  } catch (const std::exception& e) {
    r.error = util::format("datapath construction failed: %s", e.what());
    return r;
  }
  r.initialWorstSlackNs = r.timing.worstSlackNs;
  r.worstSlackNs = r.timing.worstSlackNs;

  // The dataflow facts feed the criticality bonus and never change — the
  // graph is immutable here; only the schedule moves.
  const dataflow::DataflowResult df = dataflow::lintDataflow(g);

  // One-shot test hook (see TuneOptions::stitchMutatorForTest).
  std::function<void(sched::Schedule&)> mutator = opt.stitchMutatorForTest;

  while (r.timing.worstSlackNs < 0 && r.iterations < opt.budget) {
    ++r.iterations;
    trace::bump(trace::Counter::TuneIterations);

    CriticalityOptions co = opt.crit;
    co.clockNs = opt.constraints.clockNs;
    co.model = opt.model;
    const auto slack = sched::analyzeSlack(r.schedule, opt.constraints);
    const CriticalityResult crit = analyzeCriticality(
        r.datapath, r.timing, slack ? *slack : sched::SlackReport{}, &df, co);
    if (crit.seeds.empty()) {
      r.error = "worst slack negative but no violating endpoint to seed on";
      break;
    }

    dfg::ConeCut cut;
    try {
      cut = dfg::extractCone(g, crit.seeds, opt.hops);
    } catch (const std::exception& e) {
      r.error = util::format("cone extraction failed: %s", e.what());
      break;
    }
    trace::bump(trace::Counter::TuneConeOps,
                static_cast<std::uint64_t>(cut.coneOps));

    // Priority hints: criticality ranking, restricted to cone members for
    // the cone strategies.
    std::vector<dfg::NodeId> coneHint;
    for (dfg::NodeId op : crit.ranked) {
      auto it = cut.toCone.find(op);
      if (it != cut.toCone.end()) coneHint.push_back(it->second);
    }

    const std::map<dfg::FuType, int> fuBudget = r.schedule.fuCount();
    const double derated = deratedClock(opt);

    std::vector<Candidate> cands(kNumCandidates);
    {
      const trace::Span candidatesSpan("tune.candidates");
      explore::parallelFor(kNumCandidates, opt.jobs, [&](int i) {
        Candidate& cand = cands[i];
        // Candidates swallow every failure: a candidate that dies is merely
        // invalid, and always running all of them keeps the tune.* counters
        // independent of the worker count.
        try {
          core::MfsOptions m;
          m.constraints = opt.constraints;
          m.constraints.timeSteps = 0;
          m.constraints.fuLimit = fuBudget;
          m.constraints.clockNs = derated;
          m.mode = core::MfsLiapunov::Mode::ResourceConstrained;
          if (i == 3) {
            // Whole-design re-schedule with the physically observed delays.
            dfg::Builder obs(g);
            for (dfg::NodeId op : g.operations())
              if (crit.observedDelayNs[op] > 0)
                obs.setDelayNs(op, crit.observedDelayNs[op]);
            const dfg::Dfg gObs = std::move(obs).build();
            m.priorityHint = crit.ranked;
            const core::MfsResult res = core::runMfs(gObs, m);
            if (!res.feasible) return;
            sched::Schedule full = remapOnto(g, res.schedule);
            if (!scheduleOk(full, opt.constraints)) return;
            cand.schedule = std::move(full);
          } else {
            dfg::Builder observed(cut.cone);
            for (dfg::NodeId cid = 0; cid < cut.cone.size(); ++cid) {
              const dfg::NodeId full = cut.coneToFull[cid];
              if (full == dfg::kNoNode ||
                  !dfg::isSchedulable(cut.cone.node(cid).kind))
                continue;
              double d = crit.observedDelayNs[full];
              if (i == 1) d *= 1.25;
              if (d > 0) observed.setDelayNs(cid, d);
            }
            const dfg::Dfg cone = std::move(observed).build();
            if (i == 2) m.constraints.allowChaining = false;
            m.priorityHint = coneHint;
            const core::MfsResult res = core::runMfs(cone, m);
            if (!res.feasible) return;
            std::string err;
            auto stitched = sched::stitchSchedule(
                r.schedule, opt.constraints, cut, res.schedule, &err);
            if (!stitched) {
              cand.stitchRefused = true;
              return;
            }
            cand.schedule = std::move(stitched->schedule);
          }
          const Pipeline p = runPipeline(g, lib, cand.schedule, opt);
          cand.steps = cand.schedule.numSteps();
          cand.worstSlackNs = p.timing.worstSlackNs;
          cand.valid = true;
        } catch (...) {
          cand.valid = false;
        }
      });
    }
    for (const Candidate& cand : cands)
      if (cand.stitchRefused)
        trace::bump(trace::Counter::TuneRejectedStitches);

    // Rank: meet the clock with the fewest steps; otherwise best slack.
    // Ties fall to the lowest strategy index, so the ranking — and hence
    // the whole trajectory — is deterministic.
    std::vector<int> ranked;
    for (int i = 0; i < kNumCandidates; ++i)
      if (cands[i].valid) ranked.push_back(i);
    std::stable_sort(ranked.begin(), ranked.end(), [&](int a, int b) {
      const Candidate& ca = cands[a];
      const Candidate& cb = cands[b];
      const bool fa = ca.worstSlackNs >= 0;
      const bool fb = cb.worstSlackNs >= 0;
      if (fa != fb) return fa;
      if (fa) return ca.steps < cb.steps;
      return ca.worstSlackNs > cb.worstSlackNs;
    });
    if (ranked.empty()) {
      r.error = "no feasible re-scheduling candidate for the critical cone";
      break;
    }

    // Acceptance: walk the ranking; every candidate must survive the
    // translation validator after stitching. A refuted stitch is counted
    // and the next candidate gets its chance.
    TuneIterationRecord rec;
    rec.iteration = r.iterations;
    rec.coneOps = cut.coneOps;
    for (const Candidate& cand : cands)
      if (cand.stitchRefused) ++rec.rejected;
    bool accepted = false;
    for (int idx : ranked) {
      sched::Schedule candidate = cands[idx].schedule;
      if (mutator) {
        mutator(candidate);
        mutator = nullptr;
      }
      try {
        Pipeline p = runPipeline(g, lib, candidate, opt);
        if (proveDatapath(p.dp).hasErrors()) {
          trace::bump(trace::Counter::TuneRejectedStitches);
          ++rec.rejected;
          continue;
        }
        trace::bump(trace::Counter::TuneStitches);
        r.schedule = std::move(candidate);
        r.datapath = std::move(p.dp);
        r.timing = std::move(p.timing);
        rec.candidate = idx;
        accepted = true;
        break;
      } catch (const std::exception&) {
        trace::bump(trace::Counter::TuneRejectedStitches);
        ++rec.rejected;
      }
    }
    if (!accepted) {
      r.error = "every candidate stitch was refused by the validator";
      break;
    }
    r.worstSlackNs = r.timing.worstSlackNs;
    rec.worstSlackNs = r.timing.worstSlackNs;
    rec.steps = r.schedule.numSteps();
    r.trail.push_back(rec);
  }

  r.converged = r.timing.worstSlackNs >= 0;
  r.worstSlackNs = r.timing.worstSlackNs;
  r.steps = r.schedule.numSteps();
  if (auto slack = sched::analyzeSlack(r.schedule, opt.constraints)) {
    r.slack = *std::move(slack);
    r.slackRan = true;
  }
  return r;
}

std::string TuneResult::renderText(const dfg::Dfg& g) const {
  std::string out = util::format(
      "tune '%s': %s after %d iteration(s), worst slack %.1f -> %.1f ns, "
      "%d step(s)\n",
      g.name().c_str(), converged ? "converged" : "NOT converged", iterations,
      initialWorstSlackNs, worstSlackNs, steps);
  for (const TuneIterationRecord& t : trail)
    out += util::format(
        "  iter %d: cone %zu op(s), candidate %d accepted (%d rejected), "
        "worst slack %.1f ns, %d step(s)\n",
        t.iteration, t.coneOps, t.candidate, t.rejected, t.worstSlackNs,
        t.steps);
  if (!error.empty()) out += "  stopped: " + error + "\n";
  return out;
}

std::string TuneResult::renderJson(const dfg::Dfg& g) const {
  std::string out = "{\n  \"schema\": 1,\n";
  out += util::format("  \"design\": \"%s\",\n", g.name().c_str());
  out += util::format("  \"converged\": %s,\n", converged ? "true" : "false");
  out += util::format("  \"iterations\": %d,\n", iterations);
  out += util::format("  \"initialWorstSlackNs\": %.4f,\n",
                      initialWorstSlackNs);
  out += util::format("  \"worstSlackNs\": %.4f,\n", worstSlackNs);
  out += util::format("  \"steps\": %d,\n", steps);
  out += util::format("  \"error\": \"%s\",\n", error.c_str());
  out += "  \"trail\": [";
  for (std::size_t i = 0; i < trail.size(); ++i) {
    const TuneIterationRecord& t = trail[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "    {\"iteration\": %d, \"worstSlackNs\": %.4f, \"coneOps\": %zu, "
        "\"candidate\": %d, \"rejected\": %d, \"steps\": %d}",
        t.iteration, t.worstSlackNs, t.coneOps, t.candidate, t.rejected,
        t.steps);
  }
  out += trail.empty() ? "],\n" : "\n  ],\n";
  out += "  \"slack\": ";
  if (slackRan) {
    // Indent the embedded slack document to keep the wrapper readable.
    std::string s = slack.renderJson(g);
    std::string indented;
    for (char c : s) {
      indented += c;
      if (c == '\n') indented += "  ";
    }
    out += indented;
  } else {
    out += "null";
  }
  out += "\n}\n";
  return out;
}

}  // namespace mframe::analysis::criticality
