#pragma once

// The discrete-event simulator driving every execution in this repository.
//
// All components (network links, membership timers, token circulation,
// workload generators, failure injections) schedule callbacks here. Time
// advances only between events, so an execution is a totally ordered
// alternating sequence of states and actions — exactly the timed-execution
// notion of the paper's model (Section 2).

#include <cstddef>
#include <functional>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace vsg::sim {

class Simulator {
 public:
  /// Current simulated time.
  Time now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  void at(Time t, std::function<void()> fn);

  /// Schedule `fn` after `delay` from now (delay >= 0).
  void after(Time delay, std::function<void()> fn);

  /// Run a single event if one is pending. Returns false if idle.
  bool step();

  /// Run all events with time <= t, then advance the clock to exactly t.
  void run_until(Time t);

  /// Run until the event queue drains (or `max_events` is hit, a guard
  /// against livelock in protocol bugs). Returns events processed.
  std::size_t run(std::size_t max_events = 50'000'000);

  std::size_t events_processed() const noexcept { return processed_; }
  /// The most events that were ever pending at once.
  std::size_t peak_pending() const noexcept { return peak_pending_; }
  bool idle() const { return queue_.empty(); }

 private:
  EventQueue queue_;
  Time now_ = kTimeZero;
  std::size_t processed_ = 0;
  std::size_t peak_pending_ = 0;
};

}  // namespace vsg::sim
