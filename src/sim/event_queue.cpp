#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace vsg::sim {

void EventQueue::schedule(Time at, std::function<void()> fn) {
  heap_.push(Entry{at, next_id_++, std::move(fn)});
}

Time EventQueue::pop_and_run() {
  assert(!heap_.empty());
  // priority_queue::top() is const; the entry is moved out via const_cast,
  // which is safe because we pop immediately and never reuse the slot.
  Entry entry = std::move(const_cast<Entry&>(heap_.top()));
  heap_.pop();
  entry.fn();
  return entry.at;
}

}  // namespace vsg::sim
