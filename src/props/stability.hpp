#pragma once

// Premise analysis shared by TO-property and VS-property (Figures 5 and 7).
//
// Both properties are conditional: they only constrain executions whose
// failure-status inputs stabilize to a "consistently partitioned" situation
// for a set Q — every location in Q good, every pair within Q good, every
// pair crossing the Q boundary bad, and no further status events for
// anything touching Q. This module reads the final failure statuses of a
// timed trace off its TraceIndex and determines whether that premise holds
// and, if so, the stabilization point l (the time of the last status event
// touching Q).

#include <set>
#include <string>
#include <vector>

#include "props/trace_index.hpp"
#include "sim/time.hpp"
#include "trace/events.hpp"

namespace vsg::props {

struct StabilityInfo {
  /// True iff the final statuses realize the consistently-partitioned
  /// premise for Q and hence the property's conclusions apply.
  bool premise_holds = false;
  /// Time of the last failure-status event touching Q (0 if none): the
  /// split point l of the property definitions.
  sim::Time l = 0;
  /// Diagnostic when premise_holds is false.
  std::string why_not;
};

/// Analyze the failure-status events of `trace` with respect to group Q
/// (subset of 0..n-1). Pair statuses are required bad in *both* directions
/// across the Q boundary.
StabilityInfo analyze_stability(const trace::EventLog& trace,
                                const std::set<ProcId>& q, int n);
StabilityInfo analyze_stability(const TraceIndex& index, const std::set<ProcId>& q, int n);

}  // namespace vsg::props
