// Checker mutation testing: record a *correct* trace from a real run, then
// apply targeted mutations (drop, duplicate, reorder, forge, cross-wire)
// and assert the checkers flag every one. Guards against vacuously-true
// checkers — each safety property has at least one mutation that violates
// exactly it.

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "spec/to_trace_checker.hpp"
#include "spec/vs_trace_checker.hpp"

namespace vsg {
namespace {

using trace::EventLog;
using trace::TimedEvent;

// A known-good trace with plenty of every event kind.
EventLog good_trace(std::uint64_t seed = 301) {
  harness::WorldConfig cfg;
  cfg.n = 3;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.seed = seed;
  harness::World world(cfg);
  harness::steady_traffic({0, 1, 2}, 5, sim::msec(50), sim::msec(40)).apply(world);
  world.run_until(sim::sec(3));
  return world.recorder().events();
}

bool vs_ok(const EventLog& tr) {
  spec::VSTraceChecker checker(3, 3);
  checker.check_all(tr);
  return checker.ok();
}

bool to_ok(const EventLog& tr) {
  spec::TOTraceChecker checker(3);
  checker.check_all(tr);
  return checker.ok();
}

template <typename T>
std::size_t nth_index(const EventLog& tr, std::size_t n) {
  std::size_t seen = 0;
  for (std::size_t i = 0; i < tr.size(); ++i)
    if (trace::as<T>(tr[i]) && seen++ == n) return i;
  ADD_FAILURE() << "trace lacks enough events of the requested kind";
  return 0;
}

TEST(Mutation, BaselineIsClean) {
  const auto tr = good_trace();
  EXPECT_TRUE(vs_ok(tr));
  EXPECT_TRUE(to_ok(tr));
}

TEST(Mutation, DuplicatedGprcvCaught) {
  auto tr = good_trace();
  const auto i = nth_index<trace::GprcvEvent>(tr, 2);
  tr.insert(tr.begin() + static_cast<std::ptrdiff_t>(i), tr[i]);
  EXPECT_FALSE(vs_ok(tr)) << "at-most-once / total order must flag the duplicate";
}

TEST(Mutation, DroppedMiddleGprcvCaught) {
  auto tr = good_trace();
  // Drop an early delivery at processor 1 while later ones remain: its
  // sequence is no longer a prefix of the common order.
  std::size_t count_at_1 = 0;
  std::size_t victim = tr.size();
  for (std::size_t i = 0; i < tr.size(); ++i)
    if (const auto* e = trace::as<trace::GprcvEvent>(tr[i]))
      if (e->dst == 1 && count_at_1++ == 1) victim = i;
  ASSERT_LT(victim, tr.size());
  tr.erase(tr.begin() + static_cast<std::ptrdiff_t>(victim));
  EXPECT_FALSE(vs_ok(tr));
}

TEST(Mutation, SwappedGprcvOrderCaught) {
  auto tr = good_trace();
  // Swap two adjacent-in-stream deliveries at the same destination.
  std::size_t first = tr.size(), second = tr.size();
  for (std::size_t i = 0; i < tr.size(); ++i) {
    if (const auto* e = trace::as<trace::GprcvEvent>(tr[i])) {
      if (e->dst != 2) continue;
      if (first == tr.size()) {
        first = i;
      } else {
        second = i;
        break;
      }
    }
  }
  ASSERT_LT(second, tr.size());
  std::swap(tr[first].event, tr[second].event);
  EXPECT_FALSE(vs_ok(tr));
}

TEST(Mutation, ForgedGprcvWithoutSendCaught) {
  auto tr = good_trace();
  const auto i = nth_index<trace::GprcvEvent>(tr, 0);
  auto forged = *trace::as<trace::GprcvEvent>(tr[i]);
  auto mutated = forged.m.to_bytes();
  mutated.push_back(0xEE);  // payload that was never gpsnd
  forged.m = util::Buffer(std::move(mutated));
  tr.push_back({tr.back().at + 1, forged});
  EXPECT_FALSE(vs_ok(tr));
}

TEST(Mutation, PrematureSafeCaught) {
  auto tr = good_trace();
  // Move the first safe event to the very front (before anyone delivered).
  const auto i = nth_index<trace::SafeEvent>(tr, 0);
  const TimedEvent safe = tr[i];
  tr.erase(tr.begin() + static_cast<std::ptrdiff_t>(i));
  tr.insert(tr.begin(), safe);
  EXPECT_FALSE(vs_ok(tr));
}

TEST(Mutation, NonMonotoneNewviewCaught) {
  auto tr = good_trace();
  // Append a newview with a *smaller* id than the initial view is not
  // possible (g0 is minimal), so append the same id twice with different
  // membership instead — uniqueness violation.
  tr.push_back({tr.back().at + 1,
                trace::NewViewEvent{0, core::View{core::ViewId::initial(), {0}}}});
  EXPECT_FALSE(vs_ok(tr));
}

TEST(Mutation, SelfExclusionNewviewCaught) {
  auto tr = good_trace();
  tr.push_back({tr.back().at + 1,
                trace::NewViewEvent{2, core::View{core::ViewId{9, 0}, {0, 1}}}});
  EXPECT_FALSE(vs_ok(tr));
}

TEST(Mutation, DuplicatedBrcvCaught) {
  auto tr = good_trace();
  const auto i = nth_index<trace::BrcvEvent>(tr, 1);
  tr.insert(tr.begin() + static_cast<std::ptrdiff_t>(i), tr[i]);
  EXPECT_FALSE(to_ok(tr));
}

TEST(Mutation, CrossWiredBrcvValueCaught) {
  auto tr = good_trace();
  const auto i = nth_index<trace::BrcvEvent>(tr, 0);
  auto* e = std::get_if<trace::BrcvEvent>(&tr[i].event);
  e->a = "never-broadcast";
  EXPECT_FALSE(to_ok(tr));
}

TEST(Mutation, WrongOriginBrcvCaught) {
  auto tr = good_trace();
  const auto i = nth_index<trace::BrcvEvent>(tr, 0);
  auto* e = std::get_if<trace::BrcvEvent>(&tr[i].event);
  e->origin = (e->origin + 1) % 3;
  EXPECT_FALSE(to_ok(tr));
}

TEST(Mutation, DroppedBcastCaught) {
  auto tr = good_trace();
  const auto i = nth_index<trace::BcastEvent>(tr, 0);
  tr.erase(tr.begin() + static_cast<std::ptrdiff_t>(i));
  EXPECT_FALSE(to_ok(tr)) << "its deliveries now lack a cause";
}

TEST(Mutation, ReorderedPerSenderDeliveriesCaught) {
  auto tr = good_trace();
  // Find two brcv events at the same destination from the same origin and
  // swap them: per-sender FIFO broken.
  std::size_t first = tr.size(), second = tr.size();
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const auto* e = trace::as<trace::BrcvEvent>(tr[i]);
    if (e == nullptr || e->dest != 0 || e->origin != 1) continue;
    if (first == tr.size()) {
      first = i;
    } else {
      second = i;
      break;
    }
  }
  ASSERT_LT(second, tr.size());
  std::swap(tr[first].event, tr[second].event);
  EXPECT_FALSE(to_ok(tr));
}

}  // namespace
}  // namespace vsg
