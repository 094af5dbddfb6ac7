#pragma once

// Priority queue of timed events with stable FIFO ordering among events
// scheduled for the same instant. There is no cancellation: a timer that
// may go stale carries its own guard (the ring's view_gen_ generation
// counter) and returns early when it fires.
//
// Layout: a 4-ary min-heap of 16-byte trivially copyable keys {at, id <<
// kSlotBits | slot}, so sifting moves no callables. Each callable lives in
// a slot of a slab vector, and a free list recycles the slots of popped
// events. `id` is the scheduling order; ids are unique, so comparing the
// packed word compares ids first and the slot bits never decide an order.
// Running out of slot bits (2^24 pending events) or id bits (2^40
// schedules) throws std::length_error.

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace vsg::sim {

class EventQueue {
 public:
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlot = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxId = (std::uint64_t{1} << (64 - kSlotBits)) - 1;

  /// The ordering word of a key: `id` above `slot`. Throws
  /// std::length_error when either does not fit its bits.
  static std::uint64_t pack(std::uint64_t id, std::uint64_t slot);

  /// Schedule `fn` to run at absolute time `at`. Events at equal times run
  /// in scheduling order.
  void schedule(Time at, std::function<void()> fn);

  bool empty() const noexcept { return heap_.empty(); }

  /// Number of pending events.
  std::size_t size() const noexcept { return heap_.size(); }

  /// Time of the earliest pending event; kForever if none.
  Time next_time() const noexcept { return heap_.empty() ? kForever : heap_.front().at; }

  /// Pop the earliest event and run it. Requires !empty().
  /// Returns the time at which the event ran.
  Time pop_and_run();

 private:
  struct Key {
    Time at;
    std::uint64_t word;  // id << kSlotBits | slot
    bool operator<(const Key& o) const noexcept {
      return at != o.at ? at < o.at : word < o.word;
    }
  };

  std::vector<Key> heap_;
  std::vector<std::function<void()>> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_id_ = 1;
};

}  // namespace vsg::sim
