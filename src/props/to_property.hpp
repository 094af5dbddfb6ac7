#pragma once

// TO-property(b, d, Q) — Figure 5, the performance/fault-tolerance half of
// the TO specification.
//
// Under the same stabilization premise as VS-property, the conclusions are:
//   (b) every data value bcast from a member of Q at time t is delivered
//       (brcv) at every member of Q by max(t, l + l') + d, and
//   (c) every data value delivered to any member of Q at time t is
//       delivered at every member of Q by max(t, l + l') + d,
// for some split l' <= b. As with VS-property we compute the minimal l'
// for a given d, so Theorem 7.1's claim — the stack satisfies
// TO-property(b + d, d, Q) when VS satisfies VS-property(b, d, Q) — is
// checked by comparing the measured l' against b + d.

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "props/stability.hpp"
#include "trace/events.hpp"

namespace vsg::props {

struct TOPropertyReport {
  StabilityInfo stability;

  /// Minimal l' making conclusions (b) and (c) true for the given d;
  /// nullopt if some value is never delivered at every member of Q.
  std::optional<sim::Time> required_lprime;

  /// Max over values bcast from Q after l + l' of
  /// (time delivered at all of Q) - (bcast time): the measured d.
  sim::Time max_delivery_lag = 0;
  std::size_t values_checked = 0;

  std::vector<std::string> violations;

  bool holds_with(sim::Time b) const {
    if (!stability.premise_holds) return true;  // vacuous
    return violations.empty() && required_lprime.has_value() && *required_lprime <= b;
  }
};

/// A value conclusion (b) or (c) constrains: one bcast from a member of Q
/// by `ignore_after` (b), or one first delivered at a member of Q by then
/// (c). VStoTO-property's conclusion reads the same values.
struct TOValue {
  bool bcast_from_q = false;     // (b); else (c)
  ProcId origin = kNoProc;
  std::size_t k = 0;             // origin's k-th value
  sim::Time from = 0;            // its bcast (b) or first delivery at Q (c)
  std::optional<sim::Time> all;  // when all of Q had it, if ever
};
std::vector<TOValue> to_values(const TraceIndex& index, const std::set<ProcId>& q,
                               sim::Time ignore_after);

/// Evaluate TO-property conclusions for group Q. Values bcast after
/// `ignore_after` contribute no constraints.
TOPropertyReport evaluate_to_property(const trace::EventLog& trace,
                                      const std::set<ProcId>& q, int n, sim::Time d,
                                      sim::Time ignore_after = sim::kForever);

}  // namespace vsg::props
