#pragma once

// VS-property(b, d, Q) — Figure 7, the performance/fault-tolerance half of
// the VS specification.
//
// Given a timed trace whose failure-status inputs stabilize (at time l) to a
// consistent partition with component Q, the property requires a split point
// l + l' with l' <= b such that after it
//   (b) no further newview events occur at members of Q,
//   (c) all members of Q share one final view <g, S> with S = Q, and
//   (d) every message sent in that view from a member of Q at time t is
//       `safe` at every member of Q by max(t, l + l') + d.
//
// The checker computes the *minimal* l' that makes the conclusions true for
// a given d (infinite if none does), so benches can report measured
// stabilization against the paper's bound b, and tests can assert
// satisfaction.

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "props/stability.hpp"
#include "trace/events.hpp"

namespace vsg::props {

struct VSPropertyReport {
  /// Premise analysis; if premise_holds is false the property is vacuous.
  StabilityInfo stability;

  /// Conclusion (c): did the latest views at members of Q converge to one
  /// view with membership exactly Q?
  bool views_converged = false;
  core::View final_view;

  /// Time of the last newview event at any member of Q (l if none after l).
  sim::Time view_stab_time = 0;

  /// Minimal l' satisfying conclusions (b)-(d) for the given d; nullopt if
  /// no finite l' works (e.g. a message never became safe everywhere).
  std::optional<sim::Time> required_lprime;

  /// Max over messages sent in the final view after l + l' of
  /// (time all Q members have the safe indication) - (send time); the
  /// measured analogue of d. 0 when no such message exists.
  sim::Time max_safe_lag = 0;
  std::size_t messages_checked = 0;

  std::vector<std::string> violations;

  /// The full VS-property(b, d, Q) verdict (d was fixed when evaluating).
  bool holds_with(sim::Time b) const {
    if (!stability.premise_holds) return true;  // vacuous
    return violations.empty() && required_lprime.has_value() && *required_lprime <= b;
  }
};

/// Evaluate the conclusions of VS-property for group Q over a timed trace.
/// `d` is the delivery bound used in conclusion (d). Messages sent after
/// `ignore_after` contribute no constraints (lets callers exclude the
/// un-settled tail of a finite trace).
VSPropertyReport evaluate_vs_property(const trace::EventLog& trace,
                                      const std::set<ProcId>& q, int n, int n0, sim::Time d,
                                      sim::Time ignore_after = sim::kForever);

}  // namespace vsg::props
