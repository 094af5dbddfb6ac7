#pragma once

// VStoTO-property (Figure 11): the conditional property of the *algorithm*
// used as the bridge in the proof of Theorem 7.1. Its premise is the
// conclusion of VS-property — after some point, no newview at members of
// Q, one final view <g, S> with S = Q, and timely safes — and its
// conclusion is the conclusion of TO-property shifted by one more interval
// l''' <= d (the time to finish the safe exchange of the final view):
// every value sent from (or delivered to) Q is delivered at all of Q
// within d after max(send, end of l''').
//
// Checking it separately from TO-property exhibits the proof's
// decomposition executably:
//     VS stabilizes by l + l'  (VS-property, measured)
//  -> recovery completes by l + l' + l''' with l''' <= d  (this property)
//  -> TO stabilizes by l + (l' + l''') <= l + b + d       (TO-property).

#include <optional>
#include <set>
#include <vector>

#include "props/stability.hpp"
#include "trace/events.hpp"

namespace vsg::props {

struct VStoTOPropertyReport {
  /// Premise: did the VS level stabilize (one final view = Q, no later
  /// newviews at Q)? If not, the property is vacuous.
  bool premise_holds = false;
  std::string why_not;

  /// Time of the last newview at a member of Q: the start of the recovery
  /// interval (the paper's ltime(alpha')).
  sim::Time view_stab_time = 0;

  /// Minimal l''' such that every value is delivered at all of Q within d
  /// of max(its send/first-delivery time, view_stab_time + l'''); nullopt
  /// if some value is never delivered everywhere.
  std::optional<sim::Time> required_l3;

  std::vector<std::string> violations;

  /// The Figure 11 verdict: recovery interval bounded by d.
  bool holds_with_d(sim::Time d) const {
    return premise_holds && violations.empty() && required_l3.has_value() &&
           *required_l3 <= d;
  }
};

/// Evaluate VStoTO-property over a timed trace for group Q. `d` bounds
/// both the recovery interval l''' and the post-recovery delivery lag.
VStoTOPropertyReport evaluate_vstoto_property(const trace::EventLog& trace,
                                              const std::set<ProcId>& q, int n, int n0,
                                              sim::Time d,
                                              sim::Time ignore_after = sim::kForever);

}  // namespace vsg::props
