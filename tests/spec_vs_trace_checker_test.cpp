// VSTraceChecker: accepts VS-machine behaviours and flags each safety
// violation class — self-inclusion, monotonicity, id uniqueness, the
// initial-view rule, sending-view delivery, per-view total order, and safe
// soundness. The checker keeps its state per view id; the tests at the end
// pin that processors in different views at once are checked against their
// own view's state, and that its cause maps equal spec::build_cause's on
// seeded chaos runs.

#include <gtest/gtest.h>

#include "chaos/campaign.hpp"
#include "chaos/schedule_gen.hpp"
#include "harness/world.hpp"
#include "spec/cause.hpp"
#include "spec/vs_trace_checker.hpp"
#include "trace/recorder.hpp"

namespace vsg::spec {
namespace {

using trace::GprcvEvent;
using trace::GpsndEvent;
using trace::NewViewEvent;
using trace::SafeEvent;
using trace::EventLog;

EventLog t(std::initializer_list<trace::Event> events) {
  EventLog out;
  sim::Time at = 0;
  for (auto& e : events) out.push_back({at++, e});
  return out;
}

util::Bytes b(std::uint8_t x) { return util::Bytes{x}; }

core::View view(std::uint64_t epoch, ProcId origin, std::set<ProcId> members) {
  return core::View{core::ViewId{epoch, origin}, std::move(members)};
}

TEST(VSTraceChecker, HappyPathWithSafe) {
  VSTraceChecker c(2, 2);
  c.check_all(t({
      GpsndEvent{0, b(1)},
      GprcvEvent{0, 0, b(1)},
      GprcvEvent{0, 1, b(1)},
      SafeEvent{0, 0, b(1)},
      SafeEvent{0, 1, b(1)},
  }));
  EXPECT_TRUE(c.ok()) << c.violations().front();
  EXPECT_EQ(c.view_order(core::ViewId::initial()).size(), 1u);
}

TEST(VSTraceChecker, SelfInclusionViolation) {
  VSTraceChecker c(3, 3);
  c.check_all(t({NewViewEvent{2, view(1, 0, {0, 1})}}));
  EXPECT_FALSE(c.ok());
}

TEST(VSTraceChecker, LocalMonotonicityViolation) {
  VSTraceChecker c(2, 2);
  c.check_all(t({
      NewViewEvent{0, view(5, 0, {0, 1})},
      NewViewEvent{0, view(3, 0, {0})},  // id goes backwards at 0
  }));
  EXPECT_FALSE(c.ok());
}

TEST(VSTraceChecker, DuplicateViewIdDifferentMembership) {
  VSTraceChecker c(3, 3);
  c.check_all(t({
      NewViewEvent{0, view(1, 0, {0, 1})},
      NewViewEvent{2, view(1, 0, {0, 2})},  // same id, different set
  }));
  EXPECT_FALSE(c.ok());
}

TEST(VSTraceChecker, InitialViewRule) {
  // Processor 2 starts outside P0 (n0 = 2) and must not receive anything
  // before its first newview.
  VSTraceChecker c(3, 2);
  c.check_all(t({GpsndEvent{0, b(1)}, GprcvEvent{0, 2, b(1)}}));
  EXPECT_FALSE(c.ok());
}

TEST(VSTraceChecker, SendIntoBottomViewNeverDelivered) {
  VSTraceChecker c(3, 2);
  c.check_all(t({GpsndEvent{2, b(1)}, GprcvEvent{2, 0, b(1)}}));
  EXPECT_FALSE(c.ok()) << "message sent before any view must be lost";
}

TEST(VSTraceChecker, SendingViewDeliveryViolation) {
  VSTraceChecker c(2, 2);
  c.check_all(t({
      GpsndEvent{0, b(1)},                  // sent in g0
      NewViewEvent{0, view(1, 0, {0, 1})},
      NewViewEvent{1, view(1, 0, {0, 1})},
      GprcvEvent{0, 1, b(1)},               // delivered in the new view
  }));
  EXPECT_FALSE(c.ok());
}

TEST(VSTraceChecker, PerViewTotalOrderViolation) {
  VSTraceChecker c(3, 3);
  c.check_all(t({
      GpsndEvent{0, b(1)},
      GpsndEvent{1, b(2)},
      GprcvEvent{0, 2, b(1)},  // 2 fixes order: msg(0) first
      GprcvEvent{1, 0, b(2)},  // 0 delivers msg(1) first -> divergent order
  }));
  EXPECT_FALSE(c.ok());
}

TEST(VSTraceChecker, SafeBeforeAllMembersDeliveredFlagged) {
  VSTraceChecker c(2, 2);
  c.check_all(t({
      GpsndEvent{0, b(1)},
      GprcvEvent{0, 0, b(1)},
      SafeEvent{0, 0, b(1)},  // member 1 has not delivered yet
  }));
  EXPECT_FALSE(c.ok());
}

TEST(VSTraceChecker, SafeRespectsQueueOrder) {
  VSTraceChecker c(2, 2);
  c.check_all(t({
      GpsndEvent{0, b(1)},
      GpsndEvent{0, b(2)},
      GprcvEvent{0, 0, b(1)},
      GprcvEvent{0, 0, b(2)},
      GprcvEvent{0, 1, b(1)},
      GprcvEvent{0, 1, b(2)},
      SafeEvent{0, 0, b(2)},  // skips the first message in safe order
  }));
  EXPECT_FALSE(c.ok());
}

TEST(VSTraceChecker, ViewChangeDropsUndeliveredMessagesLegally) {
  // 0 sends two; only the first is delivered before the view changes at
  // both members; the second is silently lost — legal (prefix delivery).
  const auto v1 = view(1, 0, {0, 1});
  VSTraceChecker c(2, 2);
  c.check_all(t({
      GpsndEvent{0, b(1)},
      GpsndEvent{0, b(2)},
      GprcvEvent{0, 0, b(1)},
      GprcvEvent{0, 1, b(1)},
      NewViewEvent{0, v1},
      NewViewEvent{1, v1},
      GpsndEvent{1, b(3)},
      GprcvEvent{1, 0, b(3)},
      GprcvEvent{1, 1, b(3)},
  }));
  EXPECT_TRUE(c.ok()) << c.violations().front();
}

TEST(VSTraceChecker, DisjointConcurrentViewsAreLegal) {
  // A partitioned run: {0,1} and {2} in different views concurrently.
  VSTraceChecker c(3, 3);
  const auto va = view(1, 0, {0, 1});
  const auto vb = view(2, 2, {2});
  c.check_all(t({
      NewViewEvent{0, va},
      NewViewEvent{1, va},
      NewViewEvent{2, vb},
      GpsndEvent{0, b(1)},
      GprcvEvent{0, 1, b(1)},
      GpsndEvent{2, b(9)},
      GprcvEvent{2, 2, b(9)},
      SafeEvent{2, 2, b(9)},  // singleton view: own delivery suffices
  }));
  EXPECT_TRUE(c.ok()) << c.violations().front();
}

TEST(VSTraceChecker, CauseMapsExposed) {
  VSTraceChecker c(2, 2);
  c.check_all(t({
      GpsndEvent{0, b(1)},
      GprcvEvent{0, 1, b(1)},
      SafeEvent{0, 1, b(1)},  // bad (0 hasn't delivered) but cause exists
  }));
  EXPECT_EQ(c.gprcv_cause().at(1), 0u);
  EXPECT_EQ(c.safe_cause().at(2), 0u);
}

TEST(VSTraceChecker, SafeFlaggedWhenAMemberThatMovedOnDeliveredLess) {
  // 1 leaves g0 for a later view without delivering m; 0's safe of m in g0
  // is still unsound: member 1 of g0 never delivered it there.
  VSTraceChecker c(2, 2);
  c.check_all(t({
      GpsndEvent{0, b(1)},
      GprcvEvent{0, 0, b(1)},
      NewViewEvent{1, view(1, 1, {1})},
      GprcvEvent{1, 1, b(7)},  // 1 receives something in its new view...
      SafeEvent{0, 0, b(1)},   // ...then 0 declares m safe in g0
  }));
  ASSERT_FALSE(c.ok());
  bool member_flagged = false;
  for (const auto& v : c.violations())
    member_flagged = member_flagged || v.find("member 1 has delivered only 0") != std::string::npos;
  EXPECT_TRUE(member_flagged) << c.violations().back();
}

TEST(VSTraceChecker, SafeAcceptedWhenAMemberDeliveredBeforeMovingOn) {
  // The same run with 1 delivering m in g0 first is legal: moving on does
  // not erase what 1 delivered in g0.
  VSTraceChecker c(2, 2);
  c.check_all(t({
      GpsndEvent{0, b(1)},
      GprcvEvent{0, 0, b(1)},
      GprcvEvent{0, 1, b(1)},
      NewViewEvent{1, view(1, 1, {1})},
      SafeEvent{0, 0, b(1)},
  }));
  EXPECT_TRUE(c.ok()) << c.violations().front();
}

TEST(VSTraceChecker, GprcvCausedOnlyByASendInAnotherViewFlagged) {
  // 0 sends m in g1; 1, still in g0, receives m from 0. The only matching
  // gpsnd is in g1, so the gprcv in g0 has no cause.
  const auto v1 = view(1, 0, {0, 1});
  VSTraceChecker c(2, 2);
  c.check_all(t({
      NewViewEvent{0, v1},
      GpsndEvent{0, b(5)},
      GprcvEvent{0, 1, b(5)},
  }));
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.violations().front().find("has no cause"), std::string::npos)
      << c.violations().front();
  EXPECT_TRUE(c.gprcv_cause().empty());
}

TEST(VSTraceChecker, InterleavedViewsAreCheckedAgainstTheirOwnView) {
  // 0 and 1 are in g2 while 2 is still in g1; events of the two views
  // interleave.
  const auto g1 = view(1, 0, {0, 1, 2});
  const auto g2 = view(2, 0, {0, 1});
  const auto run = t({
      NewViewEvent{0, g1},   // 0
      NewViewEvent{1, g1},   // 1
      NewViewEvent{2, g1},   // 2
      GpsndEvent{2, b(1)},   // 3: in g1
      NewViewEvent{0, g2},   // 4
      GpsndEvent{0, b(2)},   // 5: in g2
      GprcvEvent{2, 2, b(1)},  // 6: g1
      NewViewEvent{1, g2},   // 7
      GprcvEvent{0, 1, b(2)},  // 8: g2
      GprcvEvent{0, 0, b(2)},  // 9: g2
      SafeEvent{0, 1, b(2)},   // 10: g2 = {0, 1}: both delivered
      SafeEvent{0, 0, b(2)},   // 11
  });
  VSTraceChecker ok(3, 3);
  ok.check_all(run);
  EXPECT_TRUE(ok.ok()) << ok.violations().front();
  ASSERT_EQ(ok.view_order(g1.id).size(), 1u);
  EXPECT_EQ(ok.view_order(g1.id).front().first, 2);
  ASSERT_EQ(ok.view_order(g2.id).size(), 1u);
  EXPECT_EQ(ok.view_order(g2.id).front().first, 0);
  EXPECT_EQ(ok.gprcv_cause().at(6), 3u);
  EXPECT_EQ(ok.gprcv_cause().at(8), 5u);
  EXPECT_EQ(ok.safe_cause().at(11), 5u);

  // 2, in g1, declares its own message safe: 0 and 1 left g1 without
  // delivering it there.
  auto bad_run = run;
  bad_run.push_back({100, SafeEvent{2, 2, b(1)}});
  // And 2, in g1, receives the message 0 sent in g2.
  bad_run.push_back({101, GprcvEvent{0, 2, b(2)}});
  VSTraceChecker bad(3, 3);
  bad.check_all(bad_run);
  ASSERT_EQ(bad.violations().size(), 3u);
  EXPECT_NE(bad.violations()[0].find("member 0 has delivered only 0"), std::string::npos);
  EXPECT_NE(bad.violations()[1].find("member 1 has delivered only 0"), std::string::npos);
  EXPECT_NE(bad.violations()[2].find("has no cause"), std::string::npos);
}

TEST(VSTraceChecker, CauseMapsMatchBuildCauseOnChaosRuns) {
  chaos::CampaignConfig campaign;
  campaign.schedule.horizon = sim::sec(3);
  campaign.schedule.quiescence = sim::sec(8);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto schedule = chaos::generate_schedule(campaign.schedule, seed);
    harness::WorldConfig wc;
    wc.n = campaign.schedule.n;
    wc.seed = seed;
    wc.link = campaign.link;
    wc.ring = campaign.ring;
    harness::World world(wc);
    schedule.scenario.apply(world);
    world.run_until(schedule.run_until);

    const auto& events = world.recorder().events();
    std::size_t newviews = 0;
    for (const auto& te : events) newviews += trace::as<trace::NewViewEvent>(te) != nullptr;
    ASSERT_GT(newviews, 0u) << "seed " << seed << " changed no view";

    VSTraceChecker checker(world.n(), world.n0());
    checker.check_all(events);
    EXPECT_TRUE(checker.ok()) << "seed " << seed << ": " << checker.violations().front();
    const auto built = build_cause(events, world.n(), world.n0());
    EXPECT_TRUE(built.ok()) << "seed " << seed;
    EXPECT_FALSE(built.gprcv_cause.empty());
    EXPECT_EQ(checker.gprcv_cause(), built.gprcv_cause) << "seed " << seed;
    EXPECT_EQ(checker.safe_cause(), built.safe_cause) << "seed " << seed;
  }
}

}  // namespace
}  // namespace vsg::spec
