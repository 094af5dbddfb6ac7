#pragma once

// The cause function of Lemma 4.2, as a standalone artifact.
//
// Given a VS-interface trace, build the unique mapping from gprcv and safe
// events to the gpsnd events that caused them, and verify its four defining
// properties (message integrity, no duplication, no reordering, no losses /
// prefix property). VSTraceChecker performs these checks online; this module
// re-derives the mapping and re-verifies the properties *from the mapping
// itself*, which is what the lemma actually asserts — so the two
// implementations cross-check each other in tests.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "trace/events.hpp"

namespace vsg::spec {

struct CauseResult {
  /// Trace index of each gprcv event -> trace index of its gpsnd cause.
  std::map<std::size_t, std::size_t> gprcv_cause;
  /// Trace index of each safe event -> trace index of its gpsnd cause.
  std::map<std::size_t, std::size_t> safe_cause;
  /// Lemma 4.2 property violations (empty iff the trace is VS-safe in the
  /// cause-related sense).
  std::vector<std::string> violations;

  bool ok() const noexcept { return violations.empty(); }
};

/// Construct and verify the cause mapping for a trace over n processors
/// with initial-view membership {0..n0-1}.
CauseResult build_cause(const trace::EventLog& trace, int n, int n0);

}  // namespace vsg::spec
