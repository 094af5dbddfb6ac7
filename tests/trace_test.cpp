// Trace events and recorder: describe() rendering, taps, timestamping from
// the simulator clock, stable references into the stored log.

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/simulator.hpp"
#include "trace/events.hpp"
#include "trace/recorder.hpp"

namespace vsg::trace {
namespace {

TEST(Describe, EveryEventKindRenders) {
  const core::View v{core::ViewId{2, 1}, {0, 1}};
  EXPECT_EQ(describe({5, BcastEvent{0, "hi"}}), "@5 bcast(hi)_0");
  EXPECT_EQ(describe({6, BrcvEvent{0, 1, "hi"}}), "@6 brcv(hi)_{0,1}");
  EXPECT_EQ(describe({7, GpsndEvent{2, util::Bytes{0xAB, 0xCD}}}), "@7 gpsnd(abcd)_2");
  EXPECT_EQ(describe({8, GprcvEvent{0, 1, util::Bytes{0xFF}}}), "@8 gprcv(ff)_{0,1}");
  EXPECT_EQ(describe({9, SafeEvent{0, 1, util::Bytes{}}}), "@9 safe()_{0,1}");
  EXPECT_EQ(describe({10, NewViewEvent{1, v}}), "@10 newview(g(2.1){0,1})_1");
  EXPECT_EQ(describe({11, sim::StatusEvent{11, false, 2, kNoProc, sim::Status::kBad}}),
            "@11 bad_2");
  EXPECT_EQ(describe({12, sim::StatusEvent{12, true, 0, 1, sim::Status::kUgly}}),
            "@12 ugly_{0,1}");
}

TEST(Describe, LongPayloadsTruncate) {
  const util::Bytes big(32, 0x11);
  const auto text = describe({0, GpsndEvent{0, big}});
  EXPECT_NE(text.find(".."), std::string::npos);
  EXPECT_LT(text.size(), 40u);
}

TEST(Recorder, StampsWithSimulatorClock) {
  sim::Simulator simulator;
  Recorder recorder(simulator);
  simulator.at(sim::msec(7), [&] { recorder.record(BcastEvent{0, "a"}); });
  simulator.run();
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.events()[0].at, sim::msec(7));
}

// Readers and taps hold references into the stored log while later events
// are appended; those references must keep reading the event they named.
TEST(Recorder, ReferencesSurviveAppends) {
  sim::Simulator simulator;
  Recorder recorder(simulator);
  recorder.record(BcastEvent{0, "first"});
  const TimedEvent& first = recorder.events().front();
  for (int i = 0; i < 100000; ++i) recorder.record(BrcvEvent{0, 1, "later"});
  ASSERT_EQ(recorder.size(), 100001u);
  ASSERT_EQ(&first, &recorder.events().front()) << "the first event moved";
  const auto* e = as<BcastEvent>(first);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->a, "first");
}

TEST(Recorder, TapsFireSynchronouslyInOrder) {
  sim::Simulator simulator;
  Recorder recorder(simulator);
  std::vector<std::string> seen;
  recorder.subscribe([&](const TimedEvent& te) { seen.push_back(describe(te)); });
  recorder.subscribe([&](const TimedEvent&) { seen.push_back("second-tap"); });
  recorder.record(BcastEvent{0, "x"});
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "@0 bcast(x)_0");
  EXPECT_EQ(seen[1], "second-tap");
}

// Regression: a tap that feeds record() back into the same recorder would
// recurse through the tap list without bound, and would store the inner
// event before the outer one has reached every tap, so the trace order
// would depend on tap registration order. The recorder detects reentrancy
// and throws.
TEST(Recorder, RecordFromATapThrows) {
  sim::Simulator simulator;
  Recorder recorder(simulator);
  bool threw = false;
  recorder.subscribe([&](const TimedEvent&) {
    try {
      recorder.record(BcastEvent{1, "reentrant"});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  recorder.record(BcastEvent{0, "outer"});
  EXPECT_TRUE(threw);
  EXPECT_EQ(recorder.size(), 1u) << "the reentrant event must not be stored";
}

TEST(Recorder, ClearFromATapThrows) {
  sim::Simulator simulator;
  Recorder recorder(simulator);
  bool threw = false;
  recorder.subscribe([&](const TimedEvent&) {
    try {
      recorder.clear();
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  recorder.record(BcastEvent{0, "outer"});
  EXPECT_TRUE(threw);
  EXPECT_EQ(recorder.size(), 1u) << "clear() inside a tap must not destroy the event";
}

TEST(Recorder, ClearEmptiesEvents) {
  sim::Simulator simulator;
  Recorder recorder(simulator);
  recorder.record(BcastEvent{0, "x"});
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(EventAccess, AsReturnsNullForOtherTypes) {
  const TimedEvent te{0, BcastEvent{0, "a"}};
  EXPECT_NE(as<BcastEvent>(te), nullptr);
  EXPECT_EQ(as<BrcvEvent>(te), nullptr);
  EXPECT_EQ(as<sim::StatusEvent>(te), nullptr);
}

}  // namespace
}  // namespace vsg::trace
