// Stability premise analysis (shared by TO-property and VS-property).

#include <gtest/gtest.h>

#include "props/stability.hpp"

namespace vsg::props {
namespace {

trace::TimedEvent link(sim::Time at, ProcId p, ProcId q, sim::Status s) {
  return {at, sim::StatusEvent{at, true, p, q, s}};
}
trace::TimedEvent proc(sim::Time at, ProcId p, sim::Status s) {
  return {at, sim::StatusEvent{at, false, p, kNoProc, s}};
}

TEST(Stability, AllGoodWholeGroupPremiseHolds) {
  // Default statuses are good; Q = everyone => premise holds with l = 0.
  const auto info = analyze_stability({}, {0, 1, 2}, 3);
  EXPECT_TRUE(info.premise_holds);
  EXPECT_EQ(info.l, 0);
}

TEST(Stability, AllGoodProperSubsetFails) {
  // Q = {0,1} but links to 2 are good => boundary not bad => premise fails.
  const auto info = analyze_stability({}, {0, 1}, 3);
  EXPECT_FALSE(info.premise_holds);
  EXPECT_NE(info.why_not.find("boundary"), std::string::npos);
}

TEST(Stability, ConsistentPartitionHolds) {
  trace::EventLog tr{
      link(100, 0, 2, sim::Status::kBad), link(100, 2, 0, sim::Status::kBad),
      link(100, 1, 2, sim::Status::kBad), link(100, 2, 1, sim::Status::kBad)};
  const auto info = analyze_stability(tr, {0, 1}, 3);
  EXPECT_TRUE(info.premise_holds);
  EXPECT_EQ(info.l, 100);
}

TEST(Stability, OneWayCutIsNotConsistent) {
  trace::EventLog tr{link(100, 0, 2, sim::Status::kBad),
                                    link(100, 1, 2, sim::Status::kBad),
                                    link(100, 2, 1, sim::Status::kBad)};
  // (2,0) still good: boundary pair not bad both ways.
  EXPECT_FALSE(analyze_stability(tr, {0, 1}, 3).premise_holds);
}

TEST(Stability, BadProcessorInQFails) {
  trace::EventLog tr{proc(10, 0, sim::Status::kBad)};
  EXPECT_FALSE(analyze_stability(tr, {0, 1, 2}, 3).premise_holds);
}

TEST(Stability, UglyIntraLinkFails) {
  trace::EventLog tr{link(5, 0, 1, sim::Status::kUgly)};
  EXPECT_FALSE(analyze_stability(tr, {0, 1, 2}, 3).premise_holds);
}

TEST(Stability, LIsLastEventTouchingQ) {
  trace::EventLog tr{
      link(50, 0, 2, sim::Status::kBad),  link(60, 2, 0, sim::Status::kBad),
      link(70, 1, 2, sim::Status::kBad),  link(200, 2, 1, sim::Status::kBad),
  };
  const auto info = analyze_stability(tr, {0, 1}, 3);
  EXPECT_TRUE(info.premise_holds);
  EXPECT_EQ(info.l, 200);
}

TEST(Stability, EventsNotTouchingQDoNotMoveL) {
  // Flips wholly outside Q = {0,1} (between 2 and 3) don't count.
  trace::EventLog tr{
      link(10, 0, 2, sim::Status::kBad), link(10, 2, 0, sim::Status::kBad),
      link(10, 0, 3, sim::Status::kBad), link(10, 3, 0, sim::Status::kBad),
      link(10, 1, 2, sim::Status::kBad), link(10, 2, 1, sim::Status::kBad),
      link(10, 1, 3, sim::Status::kBad), link(10, 3, 1, sim::Status::kBad),
      link(500, 2, 3, sim::Status::kUgly),  // outside Q entirely
  };
  const auto info = analyze_stability(tr, {0, 1}, 4);
  EXPECT_TRUE(info.premise_holds);
  EXPECT_EQ(info.l, 10);
}

TEST(Stability, RecoveryToGoodCounts) {
  // Q-member flaps bad then good again: premise holds, l = recovery time.
  trace::EventLog tr{
      proc(100, 1, sim::Status::kBad),
      proc(300, 1, sim::Status::kGood),
  };
  const auto info = analyze_stability(tr, {0, 1, 2}, 3);
  EXPECT_TRUE(info.premise_holds);
  EXPECT_EQ(info.l, 300);
}

}  // namespace
}  // namespace vsg::props
