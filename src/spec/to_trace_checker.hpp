#pragma once

// Online safety checker for the TO interface.
//
// Accepts a stream of bcast/brcv events and verifies they could have been
// produced by TO-machine (Figure 3), i.e. the defining properties of totally
// ordered broadcast:
//   - integrity: every delivery corresponds to a distinct earlier bcast with
//     the same value and origin;
//   - per-sender FIFO: the common order lists each sender's values in the
//     order they were broadcast;
//   - common total order: every receiver's delivery sequence is a prefix of
//     one shared order (reconstructed greedily: match-or-extend).
//
// The checker trusts nothing: it rebuilds the common order purely from the
// observed events.

#include <string>
#include <vector>

#include "trace/events.hpp"

namespace vsg::trace {
class Recorder;
}

namespace vsg::spec {

class TOTraceChecker {
 public:
  explicit TOTraceChecker(int n);

  /// Feed one event (non-TO events are ignored).
  void on_event(const trace::TimedEvent& te);

  /// Feed a whole trace.
  void check_all(const trace::EventLog& trace);

  /// Subscribe as a live oracle: every event the recorder sees from now on
  /// is fed to on_event as it happens. The checker must outlive the run
  /// (the recorder keeps a reference to it until the recorder dies).
  void attach(trace::Recorder& recorder);

  bool ok() const noexcept { return violations_.empty(); }
  const std::vector<std::string>& violations() const noexcept { return violations_; }

  /// The reconstructed common total order (origin, value).
  const std::vector<std::pair<ProcId, core::Value>>& global_order() const noexcept {
    return global_;
  }
  /// Number of deliveries observed at q (its prefix length).
  std::size_t delivered(ProcId q) const;

 private:
  void complain(const std::string& what);

  int n_;
  std::vector<std::vector<core::Value>> sent_;       // bcast values per origin
  std::vector<std::pair<ProcId, core::Value>> global_;
  std::vector<std::size_t> ordered_per_sender_;      // entries of global per origin
  std::vector<std::size_t> recv_idx_;                // prefix length per receiver
  std::vector<std::string> violations_;
  std::size_t events_seen_ = 0;
};

}  // namespace vsg::spec
