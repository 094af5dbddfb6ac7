// Timeline report construction.

#include <gtest/gtest.h>

#include "harness/timeline.hpp"
#include "harness/world.hpp"

namespace vsg::harness {
namespace {

using trace::EventLog;

TEST(Timeline, EmptyTraceHasInitialIntervals) {
  const auto tl = build_timeline({}, 3, 2);
  ASSERT_EQ(tl.intervals.size(), 2u) << "one open interval per P0 member";
  EXPECT_EQ(tl.intervals[0].view, core::initial_view(2));
  EXPECT_EQ(tl.intervals[0].to, sim::kForever);
  EXPECT_EQ(tl.bcasts, 0u);
}

TEST(Timeline, NewviewClosesAndOpensIntervals) {
  const core::View v1{core::ViewId{1, 0}, {0, 1}};
  EventLog tr{
      {100, trace::NewViewEvent{0, v1}},
      {150, trace::NewViewEvent{1, v1}},
  };
  const auto tl = build_timeline(tr, 2, 2);
  ASSERT_EQ(tl.intervals.size(), 4u);
  // Processor 0: [0,100) initial, [100,end) v1.
  EXPECT_EQ(tl.intervals[0].p, 0);
  EXPECT_EQ(tl.intervals[0].to, 100);
  EXPECT_EQ(tl.intervals[1].view, v1);
  EXPECT_EQ(tl.intervals[1].from, 100);
  EXPECT_EQ(tl.intervals[1].to, sim::kForever);
  EXPECT_EQ(tl.intervals[2].p, 1);
  EXPECT_EQ(tl.intervals[2].to, 150);
}

TEST(Timeline, CountsAttributeToOpenInterval) {
  const core::View v1{core::ViewId{1, 0}, {0}};
  EventLog tr{
      {10, trace::GprcvEvent{0, 0, util::Bytes{1}}},
      {20, trace::NewViewEvent{0, v1}},
      {30, trace::GprcvEvent{0, 0, util::Bytes{2}}},
      {40, trace::SafeEvent{0, 0, util::Bytes{2}}},
  };
  const auto tl = build_timeline(tr, 1, 1);
  ASSERT_EQ(tl.intervals.size(), 2u);
  EXPECT_EQ(tl.intervals[0].gprcvs, 1u);
  EXPECT_EQ(tl.intervals[0].safes, 0u);
  EXPECT_EQ(tl.intervals[1].gprcvs, 1u);
  EXPECT_EQ(tl.intervals[1].safes, 1u);
}

TEST(Timeline, FailureEventsCollected) {
  EventLog tr{
      {5, sim::StatusEvent{5, true, 0, 1, sim::Status::kBad}},
      {9, sim::StatusEvent{9, false, 1, kNoProc, sim::Status::kUgly}},
  };
  const auto tl = build_timeline(tr, 2, 2);
  ASSERT_EQ(tl.failures.size(), 2u);
  EXPECT_TRUE(tl.failures[0].is_link);
  EXPECT_EQ(tl.end, 9);
}

TEST(Timeline, RenderMentionsEverything) {
  WorldConfig cfg;
  cfg.n = 3;
  cfg.backend = Backend::kTokenRing;
  cfg.seed = 33;
  World world(cfg);
  world.partition_at(sim::msec(100), {{0, 1}, {2}});
  world.bcast_at(sim::sec(1), 0, "x");
  world.run_until(sim::sec(3));

  const auto tl = build_timeline(world.recorder().events(), 3, 3);
  const auto text = render_timeline(tl);
  EXPECT_NE(text.find("processor 0:"), std::string::npos);
  EXPECT_NE(text.find("processor 2:"), std::string::npos);
  EXPECT_NE(text.find("failure events:"), std::string::npos);
  EXPECT_NE(text.find("bcast"), std::string::npos);
  // Both the initial view and the post-partition views appear.
  EXPECT_NE(text.find("{0,1,2}"), std::string::npos);
  EXPECT_NE(text.find("{0,1}"), std::string::npos);
}

}  // namespace
}  // namespace vsg::harness
