#pragma once

// Measurement extraction for benches: latency distributions (bcast ->
// delivered-at-all-of-Q, gpsnd -> safe-at-all-of-Q), throughput, and small
// table-printing helpers so every bench binary prints uniform rows.

#include <set>
#include <string>
#include <vector>

#include "trace/events.hpp"

namespace vsg::harness {

struct LatencySummary {
  std::size_t count = 0;       // completed measurements
  std::size_t incomplete = 0;  // started but never completed
  sim::Time min = 0;
  sim::Time p50 = 0;
  sim::Time p90 = 0;
  sim::Time max = 0;
  double mean = 0.0;
};

/// Percentiles use the nearest-rank definition (index ceil(q*n)-1 on the
/// sorted samples), so a single sample reports itself as every percentile
/// and p90 of 10 samples is the 9th, not the max. Empty input yields the
/// all-zero summary with only `incomplete` set.
LatencySummary summarize(std::vector<sim::Time> samples, std::size_t incomplete = 0);

/// For every value bcast at a member of Q after `from`, the latency until it
/// has been brcv'd at every member of Q.
LatencySummary to_delivery_latency(const trace::EventLog& trace,
                                   const std::set<ProcId>& q, sim::Time from);

/// For every message gpsnd at a member of Q after `from`, the latency until
/// its safe indication reached every member of Q (view-aware: only messages
/// sent in the sender's final view are counted).
LatencySummary vs_safe_latency(const trace::EventLog& trace,
                               const std::set<ProcId>& q, int n, int n0, sim::Time from);

/// Count of brcv events at processor p within [from, to).
std::size_t deliveries_at(const trace::EventLog& trace, ProcId p,
                          sim::Time from, sim::Time to);

/// Formatting helpers (microseconds -> "12.3ms").
std::string fmt_time(sim::Time t);
std::string fmt_row(const std::vector<std::string>& cells,
                    const std::vector<int>& widths);

}  // namespace vsg::harness
