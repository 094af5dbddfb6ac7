// Simulator: clock advance, run_until semantics, event-count guard.

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace vsg::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, StepAdvancesClockToEventTime) {
  Simulator s;
  bool ran = false;
  s.at(msec(5), [&] { ran = true; });
  EXPECT_TRUE(s.step());
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), msec(5));
  EXPECT_FALSE(s.step());
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator s;
  Time seen = -1;
  s.at(msec(10), [&] { s.after(msec(7), [&] { seen = s.now(); }); });
  s.run();
  EXPECT_EQ(seen, msec(17));
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator s;
  std::vector<Time> ran;
  s.at(msec(5), [&] { ran.push_back(s.now()); });
  s.at(msec(15), [&] { ran.push_back(s.now()); });
  s.run_until(msec(10));
  EXPECT_EQ(ran, (std::vector<Time>{msec(5)}));
  EXPECT_EQ(s.now(), msec(10));
  s.run_until(msec(20));
  EXPECT_EQ(ran.size(), 2u);
}

TEST(Simulator, RunUntilIncludesEventsAtBoundary) {
  Simulator s;
  bool ran = false;
  s.at(msec(10), [&] { ran = true; });
  s.run_until(msec(10));
  EXPECT_TRUE(ran);
}

TEST(Simulator, EventsAtSameTimeRunInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  s.at(msec(1), [&] { order.push_back(1); });
  s.at(msec(1), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunGuardStopsRunawayLoops) {
  Simulator s;
  // Self-perpetuating zero-delay event chain.
  std::function<void()> loop = [&] { s.after(0, loop); };
  s.after(0, loop);
  const std::size_t processed = s.run(1000);
  EXPECT_EQ(processed, 1000u);
  EXPECT_FALSE(s.idle());
}

TEST(Simulator, EventsProcessedCounter) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.at(i, [] {});
  s.run();
  EXPECT_EQ(s.events_processed(), 7u);
}

}  // namespace
}  // namespace vsg::sim
