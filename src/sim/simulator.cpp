#include "sim/simulator.hpp"

#include <cassert>

namespace vsg::sim {

void Simulator::at(Time t, std::function<void()> fn) {
  assert(t >= now_);
  queue_.schedule(t < now_ ? now_ : t, std::move(fn));
  if (queue_.size() > peak_pending_) peak_pending_ = queue_.size();
}

void Simulator::after(Time delay, std::function<void()> fn) {
  assert(delay >= 0);
  at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // Advance the clock before running the event, so the callback observes
  // now() == its scheduled time.
  now_ = queue_.next_time();
  queue_.pop_and_run();
  ++processed_;
  return true;
}

void Simulator::run_until(Time t) {
  while (!queue_.empty() && queue_.next_time() <= t) step();
  if (t > now_) now_ = t;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace vsg::sim
