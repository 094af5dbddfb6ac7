#pragma once

// Trace recorder: the single sink all layers report interface events to.
// Timestamps come from the simulator clock, so the recorded sequence is a
// timed trace in the sense of Section 2 (non-decreasing times, total order).

#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "trace/events.hpp"

namespace vsg::trace {

class Recorder {
 public:
  explicit Recorder(sim::Simulator& simulator) : sim_(&simulator) {}

  /// Append the event and invoke every subscribed tap on it. Taps must not
  /// call record() or clear() on the recorder they are subscribed to: a
  /// re-entrant record() would recurse through the tap list (and make the
  /// trace order depend on tap registration order), and a clear() would
  /// invalidate the TimedEvent reference the taps are holding. Both throw
  /// std::logic_error when attempted mid-dispatch.
  void record(Event event);

  /// The simulator clock events are stamped with (for layers that hold a
  /// recorder but not the simulator itself).
  sim::Time now() const noexcept { return sim_->now(); }

  const EventLog& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  void clear();

  /// Live tap invoked on every recorded event (used by online checkers).
  using Tap = std::function<void(const TimedEvent&)>;
  void subscribe(Tap tap) { taps_.push_back(std::move(tap)); }

 private:
  sim::Simulator* sim_;
  EventLog events_;
  std::vector<Tap> taps_;
  bool dispatching_ = false;  // true while taps run; guards re-entrancy
};

}  // namespace vsg::trace
