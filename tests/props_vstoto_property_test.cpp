// VStoTO-property (Figure 11): the bridge property of Theorem 7.1's proof,
// on hand-built traces and composed with the real stack.

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "props/vstoto_property.hpp"

namespace vsg::props {
namespace {

using trace::BcastEvent;
using trace::BrcvEvent;
using trace::NewViewEvent;
using trace::EventLog;

core::View qview(std::uint64_t epoch, std::set<ProcId> members) {
  return core::View{core::ViewId{epoch, *members.begin()}, std::move(members)};
}

TEST(VStoTOProperty, VacuousWithoutConvergedViews) {
  EventLog tr{
      {10, NewViewEvent{0, qview(1, {0, 1})}},
      // member 1 never hears of the view
  };
  const auto report = evaluate_vstoto_property(tr, {0, 1}, 2, 2, 1000);
  EXPECT_FALSE(report.premise_holds);
  EXPECT_FALSE(report.why_not.empty());
}

TEST(VStoTOProperty, TimelyDeliveryAfterViewStabilization) {
  const auto v = qview(1, {0, 1});
  EventLog tr{
      {100, NewViewEvent{0, v}},
      {200, NewViewEvent{1, v}},
      {1000, BcastEvent{0, "a"}},
      {1300, BrcvEvent{0, 0, "a"}},
      {1400, BrcvEvent{0, 1, "a"}},
  };
  const auto report = evaluate_vstoto_property(tr, {0, 1}, 2, 2, /*d=*/500);
  ASSERT_TRUE(report.premise_holds) << report.why_not;
  EXPECT_EQ(report.view_stab_time, 200);
  ASSERT_TRUE(report.required_l3.has_value());
  EXPECT_EQ(*report.required_l3, 0);
  EXPECT_TRUE(report.holds_with_d(500));
}

TEST(VStoTOProperty, RecoveryBacklogAbsorbedByL3) {
  // A value from before the view change is delivered late (during the
  // state exchange): the lateness counts against l''', not against d.
  const auto v = qview(1, {0, 1});
  EventLog tr{
      {0, BcastEvent{0, "old"}},
      {100, NewViewEvent{0, v}},
      {200, NewViewEvent{1, v}},
      {900, BrcvEvent{0, 0, "old"}},
      {1000, BrcvEvent{0, 1, "old"}},
  };
  // d = 300: delivery at 1000 needs view_stab(200) + l''' + 300 >= 1000,
  // so l''' = 500.
  const auto report = evaluate_vstoto_property(tr, {0, 1}, 2, 2, 300);
  ASSERT_TRUE(report.required_l3.has_value());
  EXPECT_EQ(*report.required_l3, 500);
  EXPECT_FALSE(report.holds_with_d(300)) << "500 > d";
  EXPECT_TRUE(report.holds_with_d(500));
}

TEST(VStoTOProperty, MissingDeliveryViolates) {
  const auto v = qview(1, {0, 1});
  EventLog tr{
      {100, NewViewEvent{0, v}},
      {100, NewViewEvent{1, v}},
      {500, BcastEvent{0, "lost"}},
      {600, BrcvEvent{0, 0, "lost"}},  // never at 1
  };
  const auto report = evaluate_vstoto_property(tr, {0, 1}, 2, 2, 1000);
  ASSERT_TRUE(report.premise_holds);
  EXPECT_FALSE(report.required_l3.has_value());
  EXPECT_FALSE(report.holds_with_d(1000000));
}

TEST(VStoTOProperty, ConclusionCValueDeliveredToPartOfQOnly) {
  // No bcast of the value is recorded, so only conclusion (c) sees it: it
  // reaches 0 but never 1.
  const auto v = qview(1, {0, 1});
  EventLog tr{
      {100, NewViewEvent{0, v}},
      {100, NewViewEvent{1, v}},
      {500, BrcvEvent{0, 0, "half"}},
  };
  const auto report = evaluate_vstoto_property(tr, {0, 1}, 2, 2, 1000);
  ASSERT_TRUE(report.premise_holds) << report.why_not;
  EXPECT_EQ(report.violations, std::vector<std::string>{"value delivered to part of Q only"});
  EXPECT_FALSE(report.required_l3.has_value());
  EXPECT_FALSE(report.holds_with_d(1000000));
  // A first delivery after the horizon contributes no constraint.
  EXPECT_TRUE(evaluate_vstoto_property(tr, {0, 1}, 2, 2, 1000, /*ignore_after=*/400)
                  .holds_with_d(1000));
}

TEST(VStoTOProperty, ConclusionCCoversValuesFromOutsideQ) {
  // 2 is outside Q. Its first value reaches all of Q late, which counts
  // against l''' from its first delivery at Q; its second reaches 0 only.
  const auto v = qview(1, {0, 1});
  EventLog tr{
      {10, BcastEvent{2, "z"}},
      {100, NewViewEvent{0, v}},
      {200, NewViewEvent{1, v}},
      {1000, BrcvEvent{2, 0, "z"}},
      {1500, BrcvEvent{2, 1, "z"}},
  };
  // d = 300: all of Q has it at 1500 > 1000 + 300, so l''' = 1500 - 300 - 200.
  const auto late = evaluate_vstoto_property(tr, {0, 1}, 3, 3, 300);
  ASSERT_TRUE(late.premise_holds) << late.why_not;
  ASSERT_TRUE(late.required_l3.has_value());
  EXPECT_EQ(*late.required_l3, 1000);
  EXPECT_FALSE(late.holds_with_d(300));
  EXPECT_TRUE(late.holds_with_d(1000));

  tr.push_back({1600, BcastEvent{2, "y"}});
  tr.push_back({1700, BrcvEvent{2, 0, "y"}});
  const auto partial = evaluate_vstoto_property(tr, {0, 1}, 3, 3, 300);
  EXPECT_EQ(partial.violations, std::vector<std::string>{"value delivered to part of Q only"});
  EXPECT_FALSE(partial.required_l3.has_value());
}

// The composition of the proof of Theorem 7.1, on a real execution:
// the VS level stabilizes (VS-property), the recovery interval is bounded
// (this property), and consequently TO-property holds with b + d.
TEST(VStoTOProperty, ComposesWithVSPropertyOnRealStack) {
  harness::WorldConfig cfg;
  cfg.n = 4;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.seed = 404;
  harness::World world(cfg);
  const std::set<ProcId> q{0, 1, 2, 3};
  world.partition_at(sim::msec(100), {{0, 1, 2, 3}});
  harness::steady_traffic({0, 3}, 12, sim::sec(1), sim::msec(60)).apply(world);
  world.run_until(sim::sec(10));

  const sim::Time d = 3 * (cfg.ring.pi + 4 * cfg.ring.delta);
  const auto vstoto =
      evaluate_vstoto_property(world.recorder().events(), q, 4, 4, d, sim::sec(8));
  ASSERT_TRUE(vstoto.premise_holds) << vstoto.why_not;
  EXPECT_TRUE(vstoto.holds_with_d(d))
      << "l''' = " << (vstoto.required_l3 ? *vstoto.required_l3 : -1);

  // And the conclusion of the theorem, as in Section 7's unwinding.
  const sim::Time b =
      9 * cfg.ring.delta + std::max(cfg.ring.pi + 7 * cfg.ring.delta, cfg.ring.mu);
  const auto to = world.to_report(q, d, sim::sec(8));
  EXPECT_TRUE(to.holds_with(b + d));
}

}  // namespace
}  // namespace vsg::props
