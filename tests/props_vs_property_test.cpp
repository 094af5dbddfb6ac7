// VS-property(b, d, Q) evaluation on hand-built timed traces.

#include <gtest/gtest.h>

#include "props/vs_property.hpp"

namespace vsg::props {
namespace {

using trace::GpsndEvent;
using trace::NewViewEvent;
using trace::SafeEvent;
using trace::EventLog;

util::Bytes b(std::uint8_t x) { return util::Bytes{x}; }

core::View qview(std::uint64_t epoch, std::set<ProcId> members) {
  return core::View{core::ViewId{epoch, *members.begin()}, std::move(members)};
}

EventLog cut_links(sim::Time at, std::initializer_list<ProcId> q, int n) {
  EventLog tr;
  const std::set<ProcId> qs(q);
  for (ProcId p : qs)
    for (ProcId r = 0; r < n; ++r)
      if (qs.count(r) == 0) {
        tr.push_back({at, sim::StatusEvent{at, true, p, r, sim::Status::kBad}});
        tr.push_back({at, sim::StatusEvent{at, true, r, p, sim::Status::kBad}});
      }
  return tr;
}

TEST(VSProperty, ConvergedViewAndTimelySafes) {
  const auto v = qview(3, {0, 1});
  auto tr = cut_links(100, {0, 1}, 3);
  tr.push_back({300, NewViewEvent{0, v}});
  tr.push_back({350, NewViewEvent{1, v}});
  tr.push_back({1000, GpsndEvent{0, b(1)}});
  tr.push_back({1400, SafeEvent{0, 0, b(1)}});
  tr.push_back({1500, SafeEvent{0, 1, b(1)}});

  const auto report = evaluate_vs_property(tr, {0, 1}, 3, 3, /*d=*/600);
  ASSERT_TRUE(report.stability.premise_holds) << report.stability.why_not;
  EXPECT_EQ(report.stability.l, 100);
  EXPECT_TRUE(report.views_converged);
  EXPECT_EQ(report.final_view, v);
  ASSERT_TRUE(report.required_lprime.has_value());
  EXPECT_EQ(*report.required_lprime, 250);  // last newview at 350, l = 100
  EXPECT_TRUE(report.holds_with(250));
  EXPECT_FALSE(report.holds_with(249));
  EXPECT_EQ(report.max_safe_lag, 500);
}

TEST(VSProperty, WrongFinalMembershipFails) {
  const auto v = qview(3, {0, 1, 2});  // includes 2, but Q = {0,1}
  auto tr = cut_links(100, {0, 1}, 3);
  tr.push_back({300, NewViewEvent{0, v}});
  tr.push_back({300, NewViewEvent{1, v}});
  const auto report = evaluate_vs_property(tr, {0, 1}, 3, 3, 600);
  ASSERT_TRUE(report.stability.premise_holds);
  EXPECT_FALSE(report.views_converged);
  EXPECT_FALSE(report.holds_with(1000000));
}

TEST(VSProperty, DisagreeingViewsFail) {
  auto tr = cut_links(100, {0, 1}, 3);
  tr.push_back({300, NewViewEvent{0, qview(3, {0, 1})}});
  tr.push_back({300, NewViewEvent{1, qview(4, {0, 1})}});
  const auto report = evaluate_vs_property(tr, {0, 1}, 3, 3, 600);
  EXPECT_FALSE(report.views_converged);
}

TEST(VSProperty, MissingSafeIsViolation) {
  const auto v = qview(3, {0, 1});
  auto tr = cut_links(100, {0, 1}, 3);
  tr.push_back({300, NewViewEvent{0, v}});
  tr.push_back({300, NewViewEvent{1, v}});
  tr.push_back({1000, GpsndEvent{0, b(1)}});
  tr.push_back({1100, SafeEvent{0, 0, b(1)}});  // never safe at 1
  const auto report = evaluate_vs_property(tr, {0, 1}, 3, 3, 600);
  EXPECT_FALSE(report.required_lprime.has_value());
  EXPECT_FALSE(report.holds_with(1000000));
}

TEST(VSProperty, MessagesInOlderViewsDoNotCount) {
  const auto v_old = qview(2, {0, 1, 2});
  const auto v = qview(3, {0, 1});
  EventLog tr;
  tr.push_back({10, NewViewEvent{0, v_old}});
  tr.push_back({10, NewViewEvent{1, v_old}});
  tr.push_back({20, GpsndEvent{0, b(9)}});  // in v_old; never safe — fine
  auto cuts = cut_links(100, {0, 1}, 3);
  tr.insert(tr.end(), cuts.begin(), cuts.end());
  tr.push_back({300, NewViewEvent{0, v}});
  tr.push_back({300, NewViewEvent{1, v}});
  const auto report = evaluate_vs_property(tr, {0, 1}, 3, 3, 600);
  ASSERT_TRUE(report.stability.premise_holds);
  EXPECT_TRUE(report.views_converged);
  ASSERT_TRUE(report.required_lprime.has_value());
  EXPECT_TRUE(report.holds_with(200));
}

TEST(VSProperty, LateNewviewPushesLPrime) {
  const auto v = qview(3, {0, 1});
  auto tr = cut_links(100, {0, 1}, 3);
  tr.push_back({300, NewViewEvent{0, v}});
  tr.push_back({5000, NewViewEvent{1, v}});  // straggler
  const auto report = evaluate_vs_property(tr, {0, 1}, 3, 3, 600);
  ASSERT_TRUE(report.required_lprime.has_value());
  EXPECT_EQ(*report.required_lprime, 4900);
}

TEST(VSProperty, VacuousWhenPremiseFails) {
  EventLog tr;  // everything good, Q proper subset
  const auto report = evaluate_vs_property(tr, {0, 1}, 3, 3, 100);
  EXPECT_FALSE(report.stability.premise_holds);
  EXPECT_TRUE(report.holds_with(0));
}

TEST(VSProperty, SingletonComponentNeedsItsOwnView) {
  auto tr = cut_links(50, {2}, 3);
  const auto no_view = evaluate_vs_property(tr, {2}, 3, 3, 100);
  ASSERT_TRUE(no_view.stability.premise_holds);
  EXPECT_FALSE(no_view.views_converged) << "still in the initial 3-member view";

  tr.push_back({200, NewViewEvent{2, qview(5, {2})}});
  const auto with_view = evaluate_vs_property(tr, {2}, 3, 3, 100);
  EXPECT_TRUE(with_view.views_converged);
  EXPECT_TRUE(with_view.holds_with(150));
}

}  // namespace
}  // namespace vsg::props
