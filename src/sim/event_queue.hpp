#pragma once

// Priority queue of timed events with stable FIFO ordering among events
// scheduled for the same instant. There is no cancellation: a timer that
// may go stale carries its own guard (the ring's view_gen_ generation
// counter) and returns early when it fires.

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace vsg::sim {

class EventQueue {
 public:
  /// Schedule `fn` to run at absolute time `at`. Events at equal times run
  /// in scheduling order.
  void schedule(Time at, std::function<void()> fn);

  bool empty() const { return heap_.empty(); }

  /// Time of the earliest pending event; kForever if none.
  Time next_time() const { return heap_.empty() ? kForever : heap_.top().at; }

  /// Pop the earliest event and run it. Requires !empty().
  /// Returns the time at which the event ran.
  Time pop_and_run();

 private:
  struct Entry {
    Time at;
    std::uint64_t id;  // scheduling order: the FIFO tie-break at equal times
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_id_ = 1;
};

}  // namespace vsg::sim
