#pragma once

// Timeline reporting: turn a recorded timed trace into a human-readable
// account of the run — per-processor view intervals, delivery/safe counts
// per view, failure episodes, and TO-level progress. Used by the scenario
// runner (--timeline) and handy when a property checker reports a
// violation and you want to see what the system actually did.

#include <string>
#include <vector>

#include "trace/events.hpp"

namespace vsg::harness {

/// One processor's stay in one view.
struct ViewInterval {
  ProcId p = kNoProc;
  core::View view;
  sim::Time from = 0;
  sim::Time to = sim::kForever;  // kForever = still current at trace end
  std::size_t gprcvs = 0;        // deliveries received while in this view
  std::size_t safes = 0;
};

struct Timeline {
  std::vector<ViewInterval> intervals;     // grouped by processor, in order
  std::vector<sim::StatusEvent> failures;  // failure episodes, time order
  std::size_t bcasts = 0;
  std::size_t brcvs = 0;
  sim::Time end = 0;
};

/// Build the timeline from a trace over n processors (n0 = initial view).
Timeline build_timeline(const trace::EventLog& trace, int n, int n0);

/// Render as a multi-line report.
std::string render_timeline(const Timeline& timeline);

}  // namespace vsg::harness
