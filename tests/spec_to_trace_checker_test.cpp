// TOTraceChecker: accepts exactly the TO-machine behaviours — common total
// order, per-receiver prefixes, per-sender FIFO, integrity.

#include <gtest/gtest.h>

#include "spec/to_trace_checker.hpp"

namespace vsg::spec {
namespace {

using trace::BcastEvent;
using trace::BrcvEvent;
using trace::EventLog;

EventLog t(std::initializer_list<trace::Event> events) {
  EventLog out;
  sim::Time at = 0;
  for (auto& e : events) out.push_back({at++, e});
  return out;
}

TEST(TOTraceChecker, EmptyTraceIsSafe) {
  TOTraceChecker c(2);
  EXPECT_TRUE(c.ok());
}

TEST(TOTraceChecker, SimpleBroadcastDelivery) {
  TOTraceChecker c(2);
  c.check_all(t({BcastEvent{0, "a"}, BrcvEvent{0, 0, "a"}, BrcvEvent{0, 1, "a"}}));
  EXPECT_TRUE(c.ok());
  ASSERT_EQ(c.global_order().size(), 1u);
  EXPECT_EQ(c.delivered(0), 1u);
  EXPECT_EQ(c.delivered(1), 1u);
}

TEST(TOTraceChecker, DeliveryWithoutBcastFlagged) {
  TOTraceChecker c(2);
  c.check_all(t({BrcvEvent{0, 1, "ghost"}}));
  EXPECT_FALSE(c.ok());
}

TEST(TOTraceChecker, DivergentOrdersFlagged) {
  TOTraceChecker c(3);
  c.check_all(t({
      BcastEvent{0, "a"},
      BcastEvent{1, "b"},
      BrcvEvent{0, 2, "a"},  // 2 sees a first -> common order starts "a"
      BrcvEvent{1, 0, "b"},  // 0 sees b first -> divergence
  }));
  EXPECT_FALSE(c.ok());
}

TEST(TOTraceChecker, PrefixDeliveryIsFine) {
  TOTraceChecker c(3);
  c.check_all(t({
      BcastEvent{0, "a"},
      BcastEvent{1, "b"},
      BrcvEvent{0, 2, "a"},
      BrcvEvent{1, 2, "b"},
      BrcvEvent{0, 0, "a"},  // 0 is one behind: fine
  }));
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.global_order().size(), 2u);
}

TEST(TOTraceChecker, PerSenderFifoViolationFlagged) {
  TOTraceChecker c(2);
  c.check_all(t({
      BcastEvent{0, "first"},
      BcastEvent{0, "second"},
      BrcvEvent{0, 1, "second"},  // 0's second value ordered before its first
  }));
  EXPECT_FALSE(c.ok());
}

TEST(TOTraceChecker, DuplicateDeliveryFlagged) {
  TOTraceChecker c(2);
  c.check_all(t({
      BcastEvent{0, "a"},
      BrcvEvent{0, 1, "a"},
      BrcvEvent{0, 1, "a"},  // delivered twice at 1
  }));
  EXPECT_FALSE(c.ok());
}

TEST(TOTraceChecker, RepeatedValuesBySameSenderAreFine) {
  TOTraceChecker c(2);
  c.check_all(t({
      BcastEvent{0, "x"},
      BcastEvent{0, "x"},
      BrcvEvent{0, 1, "x"},
      BrcvEvent{0, 1, "x"},  // two distinct broadcasts of equal value
  }));
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.global_order().size(), 2u);
}

TEST(TOTraceChecker, SkippingAPositionFlagged) {
  TOTraceChecker c(3);
  c.check_all(t({
      BcastEvent{0, "a"},
      BcastEvent{1, "b"},
      BrcvEvent{0, 2, "a"},
      BrcvEvent{1, 2, "b"},
      BrcvEvent{1, 0, "b"},  // 0 skips "a": not a prefix
  }));
  EXPECT_FALSE(c.ok());
}

TEST(TOTraceChecker, InterleavedSendersOneCommonOrder) {
  TOTraceChecker c(3);
  c.check_all(t({
      BcastEvent{0, "a1"}, BcastEvent{1, "b1"}, BcastEvent{0, "a2"},
      BrcvEvent{1, 0, "b1"}, BrcvEvent{0, 0, "a1"}, BrcvEvent{0, 0, "a2"},
      BrcvEvent{1, 1, "b1"}, BrcvEvent{0, 1, "a1"}, BrcvEvent{0, 1, "a2"},
      BrcvEvent{1, 2, "b1"}, BrcvEvent{0, 2, "a1"},
  }));
  EXPECT_TRUE(c.ok());
  ASSERT_EQ(c.global_order().size(), 3u);
  EXPECT_EQ(c.global_order()[0].second, "b1");
  EXPECT_EQ(c.delivered(2), 2u);
}

TEST(TOTraceChecker, ViolationMessagesAreDescriptive) {
  TOTraceChecker c(2);
  c.check_all(t({BrcvEvent{0, 1, "ghost"}}));
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.violations().front().find("no corresponding bcast"), std::string::npos);
}

}  // namespace
}  // namespace vsg::spec
