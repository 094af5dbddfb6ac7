#include "sim/event_queue.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace vsg::sim {

std::uint64_t EventQueue::pack(std::uint64_t id, std::uint64_t slot) {
  if (slot > kMaxSlot) throw std::length_error("EventQueue: more than 2^24 pending events");
  if (id > kMaxId) throw std::length_error("EventQueue: scheduling ids exhausted");
  return id << kSlotBits | slot;
}

void EventQueue::schedule(Time at, std::function<void()> fn) {
  const std::uint64_t slot = free_.empty() ? slots_.size() : free_.back();
  const Key key{at, pack(next_id_, slot)};  // throws before anything changes
  ++next_id_;
  if (slot == slots_.size()) {
    slots_.push_back(std::move(fn));
  } else {
    free_.pop_back();
    slots_[slot] = std::move(fn);
  }

  // Sift up: move parents down into the hole until the key fits.
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(key < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

Time EventQueue::pop_and_run() {
  assert(!heap_.empty());
  const Key top = heap_.front();
  const auto slot = static_cast<std::uint32_t>(top.word & kMaxSlot);
  // Move the callable out first: running it may schedule, which can reuse
  // the slot or reallocate the slab.
  std::function<void()> fn = std::move(slots_[slot]);
  free_.push_back(slot);

  // Sift the last key down from the root.
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      if (first + 4 <= n) {
        // Unrolled for a full family of four: at -O3, GCC 12 makes the
        // loop below about 1.5x slower at depths of 64 and more; at -O2
        // the two run alike.
        if (heap_[first + 1] < heap_[best]) best = first + 1;
        if (heap_[first + 2] < heap_[best]) best = first + 2;
        if (heap_[first + 3] < heap_[best]) best = first + 3;
      } else {
        for (std::size_t c = first + 1; c < n; ++c)
          if (heap_[c] < heap_[best]) best = c;
      }
      if (!(heap_[best] < last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  fn();
  return top.at;
}

}  // namespace vsg::sim
