// TO-property(b, d, Q) evaluation on hand-built timed traces.

#include <gtest/gtest.h>

#include "props/to_property.hpp"

namespace vsg::props {
namespace {

using trace::BcastEvent;
using trace::BrcvEvent;
using trace::EventLog;
using trace::TimedEvent;

TimedEvent bcast(sim::Time at, ProcId p, const char* a) {
  return {at, BcastEvent{p, a}};
}
TimedEvent brcv(sim::Time at, ProcId origin, ProcId dest, const char* a) {
  return {at, BrcvEvent{origin, dest, a}};
}

TEST(TOProperty, TimelyDeliveryNeedsNoLPrime) {
  EventLog tr{
      bcast(1000, 0, "a"),
      brcv(1500, 0, 0, "a"),
      brcv(1800, 0, 1, "a"),
  };
  const auto report = evaluate_to_property(tr, {0, 1}, 2, /*d=*/1000);
  ASSERT_TRUE(report.stability.premise_holds);
  ASSERT_TRUE(report.required_lprime.has_value());
  EXPECT_EQ(*report.required_lprime, 0);
  EXPECT_TRUE(report.holds_with(0));
  EXPECT_EQ(report.max_delivery_lag, 800);
  EXPECT_EQ(report.values_checked, 1u);
}

TEST(TOProperty, SlowEarlyDeliveryAbsorbedByLPrime) {
  // Value sent at t=0 takes 5000 to arrive; with d=1000 we need l' >= 4000.
  EventLog tr{
      bcast(0, 0, "a"),
      brcv(4000, 0, 0, "a"),
      brcv(5000, 0, 1, "a"),
  };
  const auto report = evaluate_to_property(tr, {0, 1}, 2, 1000);
  ASSERT_TRUE(report.required_lprime.has_value());
  EXPECT_EQ(*report.required_lprime, 4000);
  EXPECT_TRUE(report.holds_with(4000));
  EXPECT_FALSE(report.holds_with(3999));
}

TEST(TOProperty, MissingDeliveryIsViolation) {
  EventLog tr{
      bcast(0, 0, "a"),
      brcv(100, 0, 0, "a"),  // never reaches 1
  };
  const auto report = evaluate_to_property(tr, {0, 1}, 2, 1000);
  EXPECT_FALSE(report.required_lprime.has_value());
  EXPECT_FALSE(report.holds_with(1000000));
  EXPECT_FALSE(report.violations.empty());
}

TEST(TOProperty, ConclusionCCoversValuesFromOutsideQ) {
  // 2 is outside Q; its value reaches 0 but never 1: violates (c).
  EventLog tr{
      {0, sim::StatusEvent{0, true, 0, 2, sim::Status::kBad}},
      {0, sim::StatusEvent{0, true, 2, 0, sim::Status::kBad}},
      {0, sim::StatusEvent{0, true, 1, 2, sim::Status::kBad}},
      {0, sim::StatusEvent{0, true, 2, 1, sim::Status::kBad}},
      bcast(10, 2, "z"),
      brcv(20, 2, 0, "z"),
  };
  const auto report = evaluate_to_property(tr, {0, 1}, 3, 1000);
  ASSERT_TRUE(report.stability.premise_holds);
  EXPECT_FALSE(report.violations.empty());
}

TEST(TOProperty, VacuousWhenPremiseFails) {
  // Q = {0,1} of 3 with all links good: premise fails; property holds
  // vacuously no matter what the deliveries look like.
  EventLog tr{bcast(0, 0, "a")};
  const auto report = evaluate_to_property(tr, {0, 1}, 3, 10);
  EXPECT_FALSE(report.stability.premise_holds);
  EXPECT_TRUE(report.holds_with(0));
}

TEST(TOProperty, IgnoreAfterSkipsUnsettledTail) {
  EventLog tr{
      bcast(0, 0, "a"),
      brcv(100, 0, 0, "a"),
      brcv(100, 0, 1, "a"),
      bcast(900, 0, "tail"),  // never delivered, but after the horizon
  };
  const auto ok = evaluate_to_property(tr, {0, 1}, 2, 1000, /*ignore_after=*/500);
  EXPECT_TRUE(ok.holds_with(0));
  const auto bad = evaluate_to_property(tr, {0, 1}, 2, 1000);
  EXPECT_FALSE(bad.holds_with(0));
}

TEST(TOProperty, LagMeasuredOnlyAfterStabilization) {
  // l = 1000 (link event touching Q at that time, restoring goodness).
  EventLog tr{
      bcast(500, 0, "early"),
      {1000, sim::StatusEvent{1000, true, 0, 1, sim::Status::kGood}},
      brcv(3000, 0, 0, "early"),
      brcv(3000, 0, 1, "early"),
      bcast(4000, 0, "late"),
      brcv(4100, 0, 0, "late"),
      brcv(4200, 0, 1, "late"),
  };
  const auto report = evaluate_to_property(tr, {0, 1}, 2, 2500);
  ASSERT_TRUE(report.stability.premise_holds);
  EXPECT_EQ(report.stability.l, 1000);
  ASSERT_TRUE(report.required_lprime.has_value());
  EXPECT_EQ(*report.required_lprime, 0);
  // "early" (sent before l + l') is excluded from the measured lag; only
  // "late" counts, with its 200us lag.
  EXPECT_EQ(report.max_delivery_lag, 200);
}

}  // namespace
}  // namespace vsg::props
