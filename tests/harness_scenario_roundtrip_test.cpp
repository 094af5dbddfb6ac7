// Scenario writer: write_scenario is an exact inverse of parse_scenario.
// Property-tested over random scenarios plus directed metadata, formatting,
// and error-path cases.

#include <gtest/gtest.h>

#include <stdexcept>

#include "harness/scenario_parser.hpp"
#include "util/rng.hpp"

namespace vsg::harness {
namespace {

// Random scenario on the representable grid: times are nonnegative whole
// microseconds, bcast values have no whitespace/'#'/'|', partition
// components are non-empty.
Scenario random_scenario(util::Rng& rng, int n) {
  Scenario s;
  const int ops = 1 + static_cast<int>(rng.below(25));
  for (int i = 0; i < ops; ++i) {
    const sim::Time at = static_cast<sim::Time>(rng.below(20'000'000));
    switch (rng.below(5)) {
      case 0:
        s.add(at, OpBcast{static_cast<ProcId>(rng.below(n)),
                          "v" + std::to_string(rng.below(1000))});
        break;
      case 1: {
        OpPartition part;
        std::set<ProcId> left, right;
        for (ProcId p = 0; p < n; ++p) (rng.chance(0.5) ? left : right).insert(p);
        if (!left.empty()) part.components.push_back(std::move(left));
        if (!right.empty()) part.components.push_back(std::move(right));
        s.add(at, std::move(part));
        break;
      }
      case 2:
        s.add(at, OpHeal{});
        break;
      case 3:
        s.add(at, OpProcStatus{static_cast<ProcId>(rng.below(n)),
                               static_cast<sim::Status>(rng.below(3))});
        break;
      default: {
        const auto p = static_cast<ProcId>(rng.below(n));
        const auto q = static_cast<ProcId>((p + 1 + rng.below(n - 1)) % n);
        s.add(at, OpLinkStatus{p, q, static_cast<sim::Status>(rng.below(3))});
        break;
      }
    }
  }
  return s;
}

TEST(ScenarioRoundTrip, ParseOfWriteIsIdentity) {
  util::Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    const Scenario s = random_scenario(rng, 2 + static_cast<int>(rng.below(5)));
    const std::string text = write_scenario(s);
    const auto parsed = parse_scenario(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << text;
    EXPECT_EQ(*parsed.scenario, s) << text;
  }
}

TEST(ScenarioRoundTrip, MetaRoundTrips) {
  ScenarioMeta meta;
  meta.n = 5;
  meta.seed = 123456789012345ULL;
  meta.until = sim::sec(17);
  meta.wire = 3;
  meta.shards = 4;
  meta.budget = 4096;
  Scenario s;
  s.add(sim::msec(100), OpHeal{});
  const auto parsed = parse_scenario(write_scenario(s, meta));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.meta, meta);
  EXPECT_EQ(*parsed.scenario, s);
}

TEST(ScenarioRoundTrip, EmptyMetaWritesNoConfigLines) {
  Scenario s;
  s.add(0, OpHeal{});
  const std::string text = write_scenario(s);
  EXPECT_EQ(text.find("config"), std::string::npos);
  EXPECT_EQ(parse_scenario(text).meta, ScenarioMeta{});
}

TEST(ScenarioRoundTrip, DurationsUseCoarsestExactUnit) {
  EXPECT_EQ(format_duration(0), "0s");
  EXPECT_EQ(format_duration(sim::sec(3)), "3s");
  EXPECT_EQ(format_duration(sim::msec(1500)), "1500ms");
  EXPECT_EQ(format_duration(sim::msec(2)), "2ms");
  EXPECT_EQ(format_duration(1234), "1234us");
  EXPECT_THROW(format_duration(-1), std::invalid_argument);
}

TEST(ScenarioRoundTrip, UnwritableValuesThrow) {
  Scenario spaces;
  spaces.add(0, OpBcast{0, "two words"});
  EXPECT_THROW(write_scenario(spaces), std::invalid_argument);

  Scenario empty_value;
  empty_value.add(0, OpBcast{0, ""});
  EXPECT_THROW(write_scenario(empty_value), std::invalid_argument);

  Scenario hash;
  hash.add(0, OpBcast{0, "a#b"});
  EXPECT_THROW(write_scenario(hash), std::invalid_argument);

  Scenario empty_component;
  empty_component.add(0, OpPartition{{{0, 1}, {}}});
  EXPECT_THROW(write_scenario(empty_component), std::invalid_argument);

  Scenario no_components;
  no_components.add(0, OpPartition{{}});
  EXPECT_THROW(write_scenario(no_components), std::invalid_argument);
}

TEST(ScenarioRoundTrip, ConfigParseErrors) {
  EXPECT_FALSE(parse_scenario("config n\n").ok());
  EXPECT_FALSE(parse_scenario("config n zero\n").ok());
  EXPECT_FALSE(parse_scenario("config n 0\n").ok());
  EXPECT_FALSE(parse_scenario("config seed -3\n").ok());
  EXPECT_FALSE(parse_scenario("config until soon\n").ok());
  EXPECT_FALSE(parse_scenario("config horizon 3s\n").ok());
  EXPECT_FALSE(parse_scenario("config wire v3\n").ok());
  EXPECT_FALSE(parse_scenario("config wire 0\n").ok());
  EXPECT_FALSE(parse_scenario("config shards 0\n").ok());
  EXPECT_FALSE(parse_scenario("config shards two\n").ok());
  EXPECT_TRUE(
      parse_scenario("config n 4\nconfig seed 9\nconfig until 15s\nconfig wire 3\n").ok());
}

TEST(ScenarioRoundTrip, ShardsMetaRoundTripsAlone) {
  ScenarioMeta meta;
  meta.shards = 2;
  Scenario s;
  s.add(sim::msec(50), OpHeal{});
  const std::string text = write_scenario(s, meta);
  EXPECT_NE(text.find("config shards 2"), std::string::npos);
  const auto parsed = parse_scenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.meta, meta);
  EXPECT_EQ(*parsed.scenario, s);
}

TEST(ScenarioRoundTrip, BudgetMetaRoundTripsAlone) {
  ScenarioMeta meta;
  meta.budget = 256;
  Scenario s;
  s.add(sim::msec(50), OpHeal{});
  const std::string text = write_scenario(s, meta);
  EXPECT_NE(text.find("config budget 256"), std::string::npos);
  const auto parsed = parse_scenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.meta, meta);
  EXPECT_EQ(*parsed.scenario, s);
}

TEST(ScenarioRoundTrip, BadBudgetRejected) {
  EXPECT_FALSE(parse_scenario("config budget 0\n").ok());
  EXPECT_FALSE(parse_scenario("config budget -4\n").ok());
  EXPECT_FALSE(parse_scenario("config budget many\n").ok());
  EXPECT_TRUE(parse_scenario("config budget 64\n").ok());
}

TEST(ScenarioRoundTrip, ConfigLinesMayFollowOps) {
  const auto parsed = parse_scenario("at 1s heal\nconfig n 3\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.meta.n, 3);
  EXPECT_EQ(parsed.scenario->ops.size(), 1u);
}

// Both replayers (chaos_runner --replay, scenario_runner) refuse through
// refuse_pins; the text names the offending pin.
TEST(ScenarioPins, RefusesPinsThisBuildCannotHonour) {
  const auto refusal = [](std::optional<int> wire, std::optional<int> shards) {
    ScenarioMeta meta;
    meta.wire = wire;
    meta.shards = shards;
    return refuse_pins(meta);
  };
  EXPECT_NE(refusal(2, std::nullopt).find("pins wire v2,"), std::string::npos);
  EXPECT_NE(refusal(259, std::nullopt).find("pins wire v259,"), std::string::npos);
  EXPECT_NE(refusal(std::nullopt, 0).find("pins shards 0,"), std::string::npos);
  EXPECT_NE(refusal(std::nullopt, 65).find("pins shards 65,"), std::string::npos);
  EXPECT_EQ(refusal(3, std::nullopt), "");
  EXPECT_EQ(refusal(std::nullopt, 4), "");
  EXPECT_EQ(refusal(3, 64), "");
  EXPECT_EQ(refuse_pins(ScenarioMeta{}), "");

  // As parsed from the file's config lines.
  EXPECT_NE(refuse_pins(parse_scenario("config wire 2\n").meta), "");
  EXPECT_NE(refuse_pins(parse_scenario("config shards 65\n").meta), "");
  EXPECT_EQ(refuse_pins(parse_scenario("config wire 3\nconfig shards 4\n").meta), "");
}

}  // namespace
}  // namespace vsg::harness
