// The cause function (Lemma 4.2): existence on safe traces, and detection
// of each property violation (integrity, duplication, reordering, losses).

#include <gtest/gtest.h>

#include "spec/cause.hpp"
#include "spec/vs_machine.hpp"
#include "spec/vs_trace_checker.hpp"
#include "util/rng.hpp"

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

TEST(Cause, SimpleSendReceiveHasCause) {
  const auto trace = t({GpsndEvent{0, b(1)}, GprcvEvent{0, 1, b(1)}, GprcvEvent{0, 0, b(1)}});
  const auto result = build_cause(trace, 2, 2);
  EXPECT_TRUE(result.ok()) << result.violations.front();
  ASSERT_EQ(result.gprcv_cause.size(), 2u);
  EXPECT_EQ(result.gprcv_cause.at(1), 0u);
  EXPECT_EQ(result.gprcv_cause.at(2), 0u);
}

TEST(Cause, SafeEventsGetCausesToo) {
  const auto trace = t({GpsndEvent{0, b(1)}, GprcvEvent{0, 1, b(1)}, SafeEvent{0, 1, b(1)}});
  const auto result = build_cause(trace, 2, 2);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.safe_cause.at(2), 0u);
}

TEST(Cause, ReceiveWithoutSendIsViolation) {
  const auto trace = t({GprcvEvent{0, 1, b(9)}});
  const auto result = build_cause(trace, 2, 2);
  EXPECT_FALSE(result.ok());
}

TEST(Cause, DuplicateDeliveryIsViolation) {
  const auto trace =
      t({GpsndEvent{0, b(1)}, GprcvEvent{0, 1, b(1)}, GprcvEvent{0, 1, b(1)}});
  const auto result = build_cause(trace, 2, 2);
  EXPECT_FALSE(result.ok()) << "second delivery has no remaining cause";
}

TEST(Cause, ReorderingIsViolation) {
  const auto trace = t({GpsndEvent{0, b(1)}, GpsndEvent{0, b(2)},
                        GprcvEvent{0, 1, b(2)}, GprcvEvent{0, 1, b(1)}});
  const auto result = build_cause(trace, 2, 2);
  EXPECT_FALSE(result.ok()) << "FIFO prefix violated";
}

TEST(Cause, GapInPrefixIsViolation) {
  // Receiver gets message 2 without message 1: positional matching flags it.
  const auto trace = t({GpsndEvent{0, b(1)}, GpsndEvent{0, b(2)}, GprcvEvent{0, 1, b(2)}});
  const auto result = build_cause(trace, 2, 2);
  EXPECT_FALSE(result.ok());
}

TEST(Cause, PrefixDeliveryIsFine) {
  // Receiving only the first of two messages is legal (prefix).
  const auto trace = t({GpsndEvent{0, b(1)}, GpsndEvent{0, b(2)}, GprcvEvent{0, 1, b(1)}});
  const auto result = build_cause(trace, 2, 2);
  EXPECT_TRUE(result.ok());
}

TEST(Cause, CrossViewDeliveryIsViolation) {
  // 0 sends in g0; 1 moves to a new view, then "receives" the old message.
  const core::View v1{core::ViewId{1, 0}, {0, 1}};
  const auto trace =
      t({GpsndEvent{0, b(1)}, NewViewEvent{1, v1}, GprcvEvent{0, 1, b(1)}});
  const auto result = build_cause(trace, 2, 2);
  EXPECT_FALSE(result.ok()) << "sending view differs from delivery view";
}

TEST(Cause, SendBeforeAnyViewIsNeverDelivered) {
  // Processor 2 starts outside P0 (n0 = 2): its gpsnd is into bottom.
  const auto trace = t({GpsndEvent{2, b(1)}, GprcvEvent{2, 0, b(1)}});
  const auto result = build_cause(trace, 3, 2);
  EXPECT_FALSE(result.ok());
}

TEST(Cause, PerDestinationStreamsAreIndependent) {
  const auto trace = t({GpsndEvent{0, b(1)}, GpsndEvent{0, b(2)},
                        GprcvEvent{0, 1, b(1)}, GprcvEvent{0, 2, b(1)},
                        GprcvEvent{0, 1, b(2)}});
  const auto result = build_cause(trace, 3, 3);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.gprcv_cause.at(2), 0u);
  EXPECT_EQ(result.gprcv_cause.at(3), 0u);
  EXPECT_EQ(result.gprcv_cause.at(4), 1u);
}

TEST(Cause, ViewsPartitionTheStreams) {
  // Same payloads sent in two consecutive views; causes must stay within
  // the correct view.
  const core::View v1{core::ViewId{1, 0}, {0, 1}};
  const auto trace = t({
      GpsndEvent{0, b(7)},             // 0: in g0
      GprcvEvent{0, 1, b(7)},          // 1: in g0
      NewViewEvent{0, v1},             // 2
      NewViewEvent{1, v1},             // 3
      GpsndEvent{0, b(7)},             // 4: same payload, view v1
      GprcvEvent{0, 1, b(7)},          // 5: must map to event 4, not 0
  });
  const auto result = build_cause(trace, 2, 2);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.gprcv_cause.at(1), 0u);
  EXPECT_EQ(result.gprcv_cause.at(5), 4u);
}

// Cross-validation: the standalone build_cause and the online
// VSTraceChecker construct the cause mapping independently; on random
// machine-generated traces they must agree exactly (and both accept).
class CauseCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CauseCrossValidation, CheckerAndBuilderAgreeOnMachineTraces) {
  util::Rng rng(GetParam());
  const int n = 3;
  VSMachine m(n, n);
  EventLog tr;
  std::uint8_t next_msg = 0;
  std::uint64_t next_epoch = 1;

  for (int step = 0; step < 250; ++step) {
    const auto choice = rng.below(6);
    const auto p = static_cast<ProcId>(rng.below(n));
    switch (choice) {
      case 0: {
        std::set<ProcId> members;
        for (ProcId q = 0; q < n; ++q)
          if (rng.chance(0.7)) members.insert(q);
        if (members.empty()) members.insert(p);
        const core::View v{core::ViewId{next_epoch, *members.begin()}, members};
        if (m.createview_enabled(v)) {
          m.createview(v);
          ++next_epoch;
        }
        break;
      }
      case 1: {
        const auto& created = m.created();
        const auto& v = created[rng.below(created.size())];
        if (m.newview_enabled(v, p)) {
          m.newview(v, p);
          tr.push_back({static_cast<sim::Time>(step), NewViewEvent{p, v}});
        }
        break;
      }
      case 2: {
        const util::Bytes payload{next_msg++};
        m.gpsnd(p, payload);
        tr.push_back({static_cast<sim::Time>(step), GpsndEvent{p, payload}});
        break;
      }
      case 3: {
        for (const auto& g : m.touched_viewids())
          if (m.vs_order_enabled(p, g)) {
            m.vs_order(p, g);
            break;
          }
        break;
      }
      case 4:
        if (auto e = m.gprcv_next(p)) {
          m.gprcv(p);
          tr.push_back({static_cast<sim::Time>(step), GprcvEvent{e->p, p, e->m}});
        }
        break;
      case 5:
        if (auto e = m.safe_next(p)) {
          m.safe(p);
          tr.push_back({static_cast<sim::Time>(step), SafeEvent{e->p, p, e->m}});
        }
        break;
    }
  }

  // Both implementations accept the machine's trace...
  const auto built = build_cause(tr, n, n);
  EXPECT_TRUE(built.ok()) << built.violations.front();
  VSTraceChecker checker(n, n);
  checker.check_all(tr);
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  // ...and construct the same (unique, per Lemma 4.2) mapping.
  EXPECT_EQ(built.gprcv_cause, checker.gprcv_cause());
  EXPECT_EQ(built.safe_cause, checker.safe_cause());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CauseCrossValidation,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38, 39, 40));

}  // namespace
}  // namespace vsg::spec
