// Harness utilities: scenario parser, latency summaries, formatting,
// scenario generators.

#include <gtest/gtest.h>

#include "harness/scenario_parser.hpp"
#include "harness/stats.hpp"

namespace vsg::harness {
namespace {

TEST(ParseDuration, Units) {
  EXPECT_EQ(parse_duration("250ms"), std::optional<sim::Time>(sim::msec(250)));
  EXPECT_EQ(parse_duration("3s"), std::optional<sim::Time>(sim::sec(3)));
  EXPECT_EQ(parse_duration("1500us"), std::optional<sim::Time>(sim::usec(1500)));
  EXPECT_EQ(parse_duration("0ms"), std::optional<sim::Time>(0));
}

TEST(ParseDuration, Rejections) {
  EXPECT_FALSE(parse_duration("").has_value());
  EXPECT_FALSE(parse_duration("ms").has_value());
  EXPECT_FALSE(parse_duration("5").has_value());
  EXPECT_FALSE(parse_duration("5m").has_value());
  EXPECT_FALSE(parse_duration("abc").has_value());
}

TEST(ScenarioParser, FullScenario) {
  const auto result = parse_scenario(R"(
# demo
at 100ms partition 0,1 | 2
at 1s bcast 0 hello
at 2s proc 2 bad
at 3s link 0 2 ugly
at 4s heal
)");
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& ops = result.scenario->ops;
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_EQ(ops[0].at, sim::msec(100));
  const auto* part = std::get_if<OpPartition>(&ops[0].op);
  ASSERT_NE(part, nullptr);
  ASSERT_EQ(part->components.size(), 2u);
  EXPECT_EQ(part->components[0], (std::set<ProcId>{0, 1}));
  const auto* bc = std::get_if<OpBcast>(&ops[1].op);
  ASSERT_NE(bc, nullptr);
  EXPECT_EQ(bc->a, "hello");
  const auto* ps = std::get_if<OpProcStatus>(&ops[2].op);
  ASSERT_NE(ps, nullptr);
  EXPECT_EQ(ps->status, sim::Status::kBad);
  const auto* ls = std::get_if<OpLinkStatus>(&ops[3].op);
  ASSERT_NE(ls, nullptr);
  EXPECT_EQ(ls->q, 2);
  EXPECT_NE(std::get_if<OpHeal>(&ops[4].op), nullptr);
  EXPECT_EQ(result.scenario->last_time(), sim::sec(4));
}

TEST(ScenarioParser, CommentsAndBlanksIgnored) {
  const auto result = parse_scenario("# nothing\n\n   \nat 1s heal # trailing\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.scenario->ops.size(), 1u);
}

TEST(ScenarioParser, ErrorsCarryLineNumbers) {
  const auto r1 = parse_scenario("at 1s heal\nat oops heal\n");
  EXPECT_FALSE(r1.ok());
  EXPECT_NE(r1.error.find("line 2"), std::string::npos);

  EXPECT_FALSE(parse_scenario("at 1s frobnicate\n").ok());
  EXPECT_FALSE(parse_scenario("partition 0 | 1\n").ok());
  EXPECT_FALSE(parse_scenario("at 1s bcast x hello\n").ok());
  EXPECT_FALSE(parse_scenario("at 1s proc 0 wonky\n").ok());
  EXPECT_FALSE(parse_scenario("at 1s partition\n").ok());
  EXPECT_FALSE(parse_scenario("at 1s link 0 1\n").ok());
}

TEST(Stats, SummarizeBasics) {
  const auto s = summarize({sim::msec(10), sim::msec(30), sim::msec(20)}, 2);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.incomplete, 2u);
  EXPECT_EQ(s.min, sim::msec(10));
  EXPECT_EQ(s.max, sim::msec(30));
  EXPECT_EQ(s.p50, sim::msec(20));
  EXPECT_DOUBLE_EQ(s.mean, 20000.0);
}

TEST(Stats, SummarizeEmpty) {
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max, 0);
}

TEST(Stats, FmtTimeUnits) {
  EXPECT_EQ(fmt_time(sim::usec(42)), "42us");
  EXPECT_EQ(fmt_time(sim::msec(5)), "5ms");
  EXPECT_EQ(fmt_time(sim::sec(2)), "2s");
}

TEST(Stats, FmtRowPads) {
  const auto row = fmt_row({"a", "bb"}, {3, 4});
  EXPECT_EQ(row, "a   bb   ");
}

TEST(Stats, ToDeliveryLatencySynthetic) {
  using trace::EventLog;
  EventLog tr{
      {1000, trace::BcastEvent{0, "a"}},
      {1400, trace::BrcvEvent{0, 0, "a"}},
      {1900, trace::BrcvEvent{0, 1, "a"}},   // all-of-Q at 1900 -> 900 lag
      {5000, trace::BcastEvent{0, "b"}},
      {5100, trace::BrcvEvent{0, 0, "b"}},   // never reaches 1 -> incomplete
  };
  const auto s = to_delivery_latency(tr, {0, 1}, 0);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.incomplete, 1u);
  EXPECT_EQ(s.max, 900);
}

TEST(Stats, ToDeliveryLatencyFromCutoff) {
  using trace::EventLog;
  EventLog tr{
      {100, trace::BcastEvent{0, "early"}},
      {200, trace::BrcvEvent{0, 0, "early"}},
      {200, trace::BrcvEvent{0, 1, "early"}},
      {900, trace::BcastEvent{0, "late"}},
      {1100, trace::BrcvEvent{0, 0, "late"}},
      {1150, trace::BrcvEvent{0, 1, "late"}},
  };
  const auto s = to_delivery_latency(tr, {0, 1}, /*from=*/500);
  EXPECT_EQ(s.count, 1u) << "only the value sent after the cutoff counts";
  EXPECT_EQ(s.max, 250);
}

TEST(Stats, VsSafeLatencySynthetic) {
  using trace::EventLog;
  EventLog tr{
      {1000, trace::GpsndEvent{0, util::Bytes{1}}},
      {1200, trace::SafeEvent{0, 0, util::Bytes{1}}},
      {1600, trace::SafeEvent{0, 1, util::Bytes{1}}},
  };
  const auto s = vs_safe_latency(tr, {0, 1}, 2, 2, 0);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.max, 600);
}

TEST(Stats, VsSafeLatencyOnlyFinalViewCounts) {
  using trace::EventLog;
  const core::View v{core::ViewId{1, 0}, {0, 1}};
  EventLog tr{
      {100, trace::GpsndEvent{0, util::Bytes{9}}},  // in g0, never safe
      {200, trace::NewViewEvent{0, v}},
      {200, trace::NewViewEvent{1, v}},
      {300, trace::GpsndEvent{0, util::Bytes{1}}},
      {350, trace::SafeEvent{0, 0, util::Bytes{1}}},
      {400, trace::SafeEvent{0, 1, util::Bytes{1}}},
  };
  const auto s = vs_safe_latency(tr, {0, 1}, 2, 2, 0);
  EXPECT_EQ(s.count, 1u) << "only the final view's message is measured";
  EXPECT_EQ(s.incomplete, 0u) << "the g0 message is outside the final view";
  EXPECT_EQ(s.max, 100);
}

TEST(Stats, DeliveriesAtWindow) {
  using trace::EventLog;
  EventLog tr{
      {100, trace::BrcvEvent{0, 1, "a"}},
      {200, trace::BrcvEvent{0, 1, "b"}},
      {300, trace::BrcvEvent{0, 1, "c"}},
      {200, trace::BrcvEvent{0, 0, "a"}},
  };
  EXPECT_EQ(deliveries_at(tr, 1, 150, 300), 1u);
  EXPECT_EQ(deliveries_at(tr, 1, 0, 1000), 3u);
  EXPECT_EQ(deliveries_at(tr, 0, 0, 1000), 1u);
}

TEST(ScenarioGenerators, SteadyTrafficShape) {
  const auto s = steady_traffic({1, 2}, 3, sim::msec(10), sim::msec(5));
  EXPECT_EQ(s.ops.size(), 6u);
  EXPECT_EQ(s.last_time(), sim::msec(20));
  for (const auto& op : s.ops) EXPECT_NE(std::get_if<OpBcast>(&op.op), nullptr);
}

TEST(ScenarioGenerators, RandomChurnEndsWithFinalPartition) {
  util::Rng rng(1);
  const auto s = random_churn(4, 5, sim::msec(10), sim::msec(100), {{0, 1}, {2, 3}}, rng);
  ASSERT_EQ(s.ops.size(), 6u);
  const auto* final_op = std::get_if<OpPartition>(&s.ops.back().op);
  ASSERT_NE(final_op, nullptr);
  EXPECT_EQ(s.ops.back().at, sim::msec(100));
}

}  // namespace
}  // namespace vsg::harness
