// Event queue: time ordering, FIFO tie-breaking, slot reuse, and the key
// packing with its overflow guard. The dual-model test runs the queue
// against a reference std::map keyed by (time, scheduling order).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace vsg::sim {
namespace {

TEST(EventQueue, EmptyQueue) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kForever);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> ran;
  q.schedule(30, [&] { ran.push_back(3); });
  q.schedule(10, [&] { ran.push_back(1); });
  q.schedule(20, [&] { ran.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeRunsFifo) {
  EventQueue q;
  std::vector<int> ran;
  for (int i = 0; i < 5; ++i) q.schedule(100, [&ran, i] { ran.push_back(i); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PopReturnsEventTime) {
  EventQueue q;
  q.schedule(77, [] {});
  EXPECT_EQ(q.pop_and_run(), 77);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  std::vector<int> ran;
  q.schedule(10, [&] {
    ran.push_back(1);
    q.schedule(15, [&] { ran.push_back(2); });
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
}

TEST(EventQueue, SizeCountsPendingEvents) {
  EventQueue q;
  q.schedule(5, [] {});
  q.schedule(5, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop_and_run();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopReleasesTheCallable) {
  // A popped event's captures are destroyed once it has run, even though
  // its slab slot stays allocated for reuse.
  EventQueue q;
  auto token = std::make_shared<int>(0);
  q.schedule(1, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  q.pop_and_run();
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
}

// Reference model: pending events keyed by (time, scheduling order).
struct DualModel {
  EventQueue q;
  std::map<std::pair<Time, std::uint64_t>, int> ref;
  std::uint64_t next_id = 0;
  int next_tag = 0;
  std::vector<int> ran;

  // Schedules on both sides; the callable records its tag and, if asked,
  // schedules `children` more events at `at + delay` while it runs.
  void schedule(Time at, util::Rng& rng, int depth) {
    const int tag = next_tag++;
    ref.emplace(std::make_pair(at, next_id++), tag);
    const int children = depth > 0 ? static_cast<int>(rng.below(3)) : 0;
    const Time delay = static_cast<Time>(rng.below(3));  // 0: same instant
    q.schedule(at, [this, tag, at, children, delay, depth, &rng] {
      ran.push_back(tag);
      for (int c = 0; c < children; ++c) schedule(at + delay, rng, depth - 1);
    });
  }

  // Pops one event from each side and checks they agree.
  void pop() {
    ASSERT_FALSE(q.empty());
    ASSERT_EQ(q.size(), ref.size());
    const Time at = ref.begin()->first.first;
    const int tag = ref.begin()->second;
    ASSERT_EQ(q.next_time(), at);
    ref.erase(ref.begin());  // before running: the callable schedules into ref
    const std::size_t before = ran.size();
    EXPECT_EQ(q.pop_and_run(), at);
    ASSERT_EQ(ran.size(), before + 1);
    ASSERT_EQ(ran.back(), tag);
  }
};

TEST(EventQueue, DualModelRandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    DualModel m;
    Time now = 0;
    for (int step = 0; step < 2000; ++step) {
      if (m.ref.empty() || rng.chance(0.55)) {
        // Few distinct timestamps, so equal times are the common case.
        m.schedule(now + static_cast<Time>(rng.below(4)), rng, 2);
      } else {
        now = m.ref.begin()->first.first;
        m.pop();
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    while (!m.ref.empty()) {
      m.pop();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(m.q.empty()) << "seed " << seed;
    EXPECT_EQ(m.q.next_time(), kForever);
  }
}

TEST(EventQueue, FifoHoldsWhenSlotsAreReused) {
  // Waves of schedule-then-drain reuse the same slots; FIFO among equal
  // times must not depend on which slot an event landed in.
  EventQueue q;
  std::vector<int> ran;
  for (int wave = 0; wave < 5; ++wave) {
    ran.clear();
    for (int i = 0; i < 64; ++i) q.schedule(10 * wave, [&ran, i] { ran.push_back(i); });
    // The free list hands the slots back in reverse, so the next wave's
    // FIFO order cannot come from slot order.
    while (!q.empty()) q.pop_and_run();
    ASSERT_EQ(ran.size(), 64u);
    for (int i = 0; i < 64; ++i) ASSERT_EQ(ran[static_cast<std::size_t>(i)], i);
  }
  // Interleaved: half the events popped, then new ones at the same time run
  // after every older one.
  ran.clear();
  for (int i = 0; i < 8; ++i) q.schedule(100, [&ran, i] { ran.push_back(i); });
  for (int i = 0; i < 4; ++i) q.pop_and_run();
  for (int i = 8; i < 12; ++i) q.schedule(100, [&ran, i] { ran.push_back(i); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(EventQueue, KeyPackingOrdersByIdThenSlot) {
  EXPECT_EQ(EventQueue::pack(1, 0), std::uint64_t{1} << EventQueue::kSlotBits);
  EXPECT_EQ(EventQueue::pack(3, 5), (std::uint64_t{3} << EventQueue::kSlotBits) | 5);
  // The id decides the order whatever the slots are.
  EXPECT_LT(EventQueue::pack(7, EventQueue::kMaxSlot), EventQueue::pack(8, 0));
  // Both fields at their maximum fill the word exactly.
  EXPECT_EQ(EventQueue::pack(EventQueue::kMaxId, EventQueue::kMaxSlot), ~std::uint64_t{0});
}

TEST(EventQueue, KeyPackingOverflowThrows) {
  // Checked through the packing arithmetic at its boundary: 2^24 pending
  // events are never allocated.
  EXPECT_NO_THROW(EventQueue::pack(0, EventQueue::kMaxSlot));
  EXPECT_THROW(EventQueue::pack(0, EventQueue::kMaxSlot + 1), std::length_error);
  EXPECT_NO_THROW(EventQueue::pack(EventQueue::kMaxId, 0));
  EXPECT_THROW(EventQueue::pack(EventQueue::kMaxId + 1, 0), std::length_error);
  EXPECT_EQ(EventQueue::kMaxSlot, (std::uint64_t{1} << 24) - 1);
  EXPECT_EQ(EventQueue::kMaxId, (std::uint64_t{1} << 40) - 1);
}

}  // namespace
}  // namespace vsg::sim
