// Event queue: time ordering, FIFO tie-breaking.

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"

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

}  // namespace
}  // namespace vsg::sim
