// props::TraceIndex: the one positional index the property evaluators and
// the latency summaries read, built event by event.

#include <gtest/gtest.h>

#include "props/trace_index.hpp"

namespace vsg::props {
namespace {

using trace::BcastEvent;
using trace::BrcvEvent;
using trace::GpsndEvent;
using trace::NewViewEvent;
using trace::SafeEvent;

core::View qview(std::uint64_t epoch, std::set<ProcId> members) {
  return core::View{core::ViewId{epoch, *members.begin()}, std::move(members)};
}

TEST(TraceIndex, MatchesTheKthReceiptToTheKthSendPerReceiver) {
  TraceIndex index(0);
  index.add({10, BcastEvent{0, "a"}});
  index.add({20, BcastEvent{0, "b"}});
  index.add({30, BrcvEvent{0, 1, "a"}});
  index.add({40, BrcvEvent{0, 1, "b"}});
  index.add({50, BrcvEvent{0, 2, "a"}});
  const Stream* s = index.to_stream(0);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->sent, (std::vector<sim::Time>{10, 20}));
  EXPECT_EQ(s->receipts(0), (std::map<ProcId, sim::Time>{{1, 30}, {2, 50}}));
  EXPECT_EQ(s->receipts(1), (std::map<ProcId, sim::Time>{{1, 40}}));
  EXPECT_TRUE(s->receipts(2).empty());
  EXPECT_EQ(all_of(s->receipts(0), {1, 2}), 50);
  EXPECT_EQ(all_of(s->receipts(1), {1, 2}), std::nullopt);
  EXPECT_EQ(first_of(s->receipts(1), {1, 2}), 40);
  EXPECT_EQ(first_of(s->receipts(1), {2}), std::nullopt);
  EXPECT_EQ(index.to_stream(1), nullptr);

  // The fold goes on after a read: a later receipt completes the second.
  index.add({60, BrcvEvent{0, 2, "b"}});
  EXPECT_EQ(all_of(index.to_stream(0)->receipts(1), {1, 2}), 60);
}

TEST(TraceIndex, KeysVSReceiptsByTheReceiversCurrentView) {
  const auto v = qview(1, {0, 1});
  TraceIndex index(2);  // both start in the initial view
  index.add({10, GpsndEvent{0, {}}});
  index.add({20, SafeEvent{0, 1, {}}});
  index.add({30, NewViewEvent{1, v}});
  index.add({40, NewViewEvent{0, v}});
  index.add({50, GpsndEvent{0, {}}});
  index.add({60, SafeEvent{0, 0, {}}});
  index.add({70, SafeEvent{0, 1, {}}});
  const Stream* before = index.vs_stream(core::ViewId::initial(), 0);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->receipts(0), (std::map<ProcId, sim::Time>{{1, 20}}));
  const Stream* after = index.vs_stream(v.id, 0);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->sent, (std::vector<sim::Time>{50}));
  EXPECT_EQ(all_of(after->receipts(0), {0, 1}), 70);
  EXPECT_EQ(index.last_newview({0, 1}), 40);
  EXPECT_EQ(index.last_newview({2}), 0);
}

TEST(TraceIndex, KeepsFinalStatusesAndTheirLatestTimes) {
  TraceIndex index(0);
  index.add({100, sim::StatusEvent{100, true, 0, 2, sim::Status::kBad}});
  index.add({200, sim::StatusEvent{200, false, 1, kNoProc, sim::Status::kUgly}});
  index.add({300, sim::StatusEvent{300, false, 1, kNoProc, sim::Status::kGood}});
  EXPECT_EQ(index.link(0, 2).status, sim::Status::kBad);
  EXPECT_EQ(index.link(2, 0).status, sim::Status::kGood);
  EXPECT_EQ(index.proc(1).status, sim::Status::kGood);
  EXPECT_EQ(index.proc(1).at, 300);
  EXPECT_EQ(index.last_status_touching({2}), 100);
  EXPECT_EQ(index.last_status_touching({0, 1}), 300);
  EXPECT_EQ(index.last_status_touching({3}), 0);
}

TEST(TraceIndex, FinalViewOfQ) {
  const auto v = qview(1, {0, 1});
  TraceIndex index(0);
  EXPECT_EQ(index.final_view({0, 1}).why_not, "member 0 has no view");
  index.add({10, NewViewEvent{0, v}});
  EXPECT_EQ(index.final_view({0, 1}).why_not, "member 1 has no view");
  index.add({20, NewViewEvent{1, qview(2, {1})}});
  const FinalView apart = index.final_view({0, 1});
  EXPECT_EQ(apart.why_not, "members of Q disagree on the final view");
  EXPECT_EQ(apart.view, v) << "the least member's view, as VS-property reports it";
  index.add({30, NewViewEvent{1, v}});
  const FinalView shared = index.final_view({0, 1});
  EXPECT_TRUE(shared.why_not.empty());
  EXPECT_EQ(shared.view, v);
  EXPECT_FALSE(index.final_view({}).view.has_value());
}

}  // namespace
}  // namespace vsg::props
