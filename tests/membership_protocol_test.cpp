// Token-ring VS implementation: view formation, token circulation, loss
// recovery, merge probing, and conformance of its traces to the VS
// specification (VSTraceChecker + VS-property).

#include <gtest/gtest.h>

#include <string>

#include "harness/world.hpp"
#include "spec/vs_trace_checker.hpp"

namespace vsg {
namespace {

using harness::Backend;
using harness::World;
using harness::WorldConfig;

WorldConfig ring_cfg(int n, std::uint64_t seed, int n0 = -1) {
  WorldConfig cfg;
  cfg.n = n;
  cfg.n0 = n0;
  cfg.backend = Backend::kTokenRing;
  cfg.seed = seed;
  return cfg;
}

// The ring counts only into the World's registry (K = 1: metrics()).
std::uint64_t ring_count(const World& world, const std::string& name) {
  const obs::Counter* c = world.metrics().find_counter(name);
  EXPECT_NE(c, nullptr) << name;
  return c == nullptr ? 0 : c->value();
}

std::int64_t max_token_entries(const World& world) {
  const obs::Gauge* g = world.metrics().find_gauge("ring.max_token_entries");
  EXPECT_NE(g, nullptr);
  return g == nullptr ? 0 : g->value();
}

TEST(TokenRing, InitialViewStartsTokenAndDeliversTraffic) {
  World world(ring_cfg(3, 1));
  world.simulator().at(sim::msec(10), [&] {
    world.vs().gpsnd(0, util::Bytes{42});
  });
  world.run_until(sim::sec(1));

  // Everyone (including the sender) received it; safes followed.
  int gprcvs = 0, safes = 0;
  for (const auto& te : world.recorder().events()) {
    if (trace::as<trace::GprcvEvent>(te)) ++gprcvs;
    if (trace::as<trace::SafeEvent>(te)) ++safes;
  }
  EXPECT_EQ(gprcvs, 3);
  EXPECT_EQ(safes, 3);
  EXPECT_TRUE(world.check_vs_safety().empty());
}

TEST(TokenRing, NoTrafficStillNoSpuriousViews) {
  World world(ring_cfg(4, 2));
  world.run_until(sim::sec(5));
  // Stable network: the initial view survives; no newview events at all.
  for (const auto& te : world.recorder().events())
    EXPECT_EQ(trace::as<trace::NewViewEvent>(te), nullptr)
        << "spurious view change in a stable run";
  EXPECT_GT(ring_count(world, "ring.token_rotations"), 0u);
}

TEST(TokenRing, PartitionFormsMatchingViews) {
  World world(ring_cfg(5, 3));
  world.partition_at(sim::msec(100), {{0, 1, 2}, {3, 4}});
  world.run_until(sim::sec(4));

  EXPECT_TRUE(world.check_vs_safety().empty());
  const auto& a = world.token_ring()->node(0).view();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->members, (std::set<ProcId>{0, 1, 2}));
  for (ProcId p : {1, 2}) EXPECT_EQ(world.token_ring()->node(p).view(), a);
  const auto& b = world.token_ring()->node(3).view();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->members, (std::set<ProcId>{3, 4}));
  EXPECT_EQ(world.token_ring()->node(4).view(), b);
}

TEST(TokenRing, HealMergesViews) {
  World world(ring_cfg(4, 4));
  world.partition_at(sim::msec(100), {{0, 1}, {2, 3}});
  world.heal_at(sim::sec(2));
  world.run_until(sim::sec(6));

  EXPECT_TRUE(world.check_vs_safety().empty());
  const auto& v = world.token_ring()->node(0).view();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->members, (std::set<ProcId>{0, 1, 2, 3})) << "merged back";
  for (ProcId p = 1; p < 4; ++p) EXPECT_EQ(world.token_ring()->node(p).view(), v);
}

TEST(TokenRing, IsolatedProcessorFormsSingletonView) {
  World world(ring_cfg(3, 5));
  world.partition_at(sim::msec(100), {{0, 1}, {2}});
  world.run_until(sim::sec(4));
  const auto& v = world.token_ring()->node(2).view();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->members, std::set<ProcId>{2});
  // Singleton group still functions: own messages become safe.
  world.simulator().at(world.simulator().now(), [&] {
    world.vs().gpsnd(2, util::Bytes{9});
  });
  world.run_until(sim::sec(6));
  int safes_at_2 = 0;
  for (const auto& te : world.recorder().events())
    if (const auto* e = trace::as<trace::SafeEvent>(te))
      if (e->dst == 2) ++safes_at_2;
  EXPECT_GE(safes_at_2, 1);
}

TEST(TokenRing, LeaderCrashTriggersReformation) {
  World world(ring_cfg(3, 6));
  // Leader of the initial view is 0 (min member). Stop it.
  world.proc_status_at(sim::sec(1), 0, sim::Status::kBad);
  world.partition_at(sim::sec(1), {{0}, {1, 2}});
  world.run_until(sim::sec(5));

  EXPECT_TRUE(world.check_vs_safety().empty());
  const auto& v = world.token_ring()->node(1).view();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->members, (std::set<ProcId>{1, 2})) << "survivors re-formed without leader";
}

TEST(TokenRing, ViewIdsNeverRegressPerNode) {
  World world(ring_cfg(4, 7));
  world.partition_at(sim::msec(200), {{0, 1}, {2, 3}});
  world.heal_at(sim::sec(2));
  world.partition_at(sim::sec(4), {{0}, {1, 2, 3}});
  world.heal_at(sim::sec(6));
  world.run_until(sim::sec(10));
  // VSTraceChecker enforces local monotonicity; just double-check no
  // violations of any kind.
  const auto violations = world.check_vs_safety();
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(TokenRing, TrafficAcrossViewChangeStaysSafe) {
  World world(ring_cfg(4, 8));
  // Continuous VS traffic while the membership is reshaped underneath.
  for (int k = 0; k < 40; ++k) {
    world.simulator().at(sim::msec(50 * k + 10), [&world, k] {
      world.vs().gpsnd(static_cast<ProcId>(k % 4), util::Bytes{static_cast<std::uint8_t>(k)});
    });
  }
  world.partition_at(sim::msec(500), {{0, 1}, {2, 3}});
  world.heal_at(sim::msec(1200));
  world.run_until(sim::sec(6));

  const auto violations = world.check_vs_safety();
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(FlowControl, BurstLargerThanCapStillFullyDelivered) {
  WorldConfig cfg = ring_cfg(3, 21);
  cfg.ring.max_entries_per_pass = 2;  // tight cap, bursty load
  World world(cfg);
  for (int k = 0; k < 15; ++k)
    world.simulator().at(sim::msec(100), [&world, k] {
      world.vs().gpsnd(0, util::Bytes{static_cast<std::uint8_t>(k)});
    });
  world.run_until(sim::sec(5));

  EXPECT_TRUE(world.check_vs_safety().empty());
  // Everything boards eventually (8 laps at 2 per pass), nothing is lost.
  int at_2 = 0;
  for (const auto& te : world.recorder().events())
    if (const auto* e = trace::as<trace::GprcvEvent>(te))
      if (e->dst == 2) ++at_2;
  EXPECT_EQ(at_2, 15);
  // And the token never carried more than a small multiple of the cap.
  EXPECT_LE(max_token_entries(world), 8);
}

TEST(FlowControl, UncappedMatchesDefaultBehaviour) {
  WorldConfig cfg = ring_cfg(3, 21);  // same seed as above, no cap
  World world(cfg);
  for (int k = 0; k < 15; ++k)
    world.simulator().at(sim::msec(100), [&world, k] {
      world.vs().gpsnd(0, util::Bytes{static_cast<std::uint8_t>(k)});
    });
  world.run_until(sim::sec(5));
  EXPECT_TRUE(world.check_vs_safety().empty());
  // The whole burst boards in one pass.
  EXPECT_GE(max_token_entries(world), 15);
}

TEST(OneRoundFormation, MergesAndStaysSafe) {
  WorldConfig cfg = ring_cfg(4, 15);
  cfg.ring.formation = membership::FormationMode::kOneRound;
  World world(cfg);
  world.partition_at(sim::msec(200), {{0, 1}, {2, 3}});
  world.heal_at(sim::sec(2));
  world.run_until(sim::sec(10));

  const auto violations = world.check_vs_safety();
  EXPECT_TRUE(violations.empty()) << violations.front();
  const auto& v = world.token_ring()->node(0).view();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->members, (std::set<ProcId>{0, 1, 2, 3}));
  for (ProcId p = 1; p < 4; ++p) EXPECT_EQ(world.token_ring()->node(p).view(), v);
}

TEST(OneRoundFormation, EndToEndTotalOrderStillHolds) {
  WorldConfig cfg = ring_cfg(3, 16);
  cfg.ring.formation = membership::FormationMode::kOneRound;
  World world(cfg);
  world.partition_at(sim::msec(200), {{0, 1}, {2}});
  world.bcast_at(sim::sec(1), 0, "one-round-a");
  world.heal_at(sim::sec(2));
  world.bcast_at(sim::sec(4), 2, "one-round-b");
  world.run_until(sim::sec(10));

  EXPECT_TRUE(world.check_to_safety().empty());
  const auto& reference = world.stack().process(0).delivered();
  ASSERT_EQ(reference.size(), 2u);
  for (ProcId p = 1; p < 3; ++p)
    EXPECT_EQ(world.stack().process(p).delivered(), reference);
}

TEST(OneRoundFormation, ChurnsMoreThanThreeRound) {
  // The measurable content of footnote 7, as a regression test.
  auto run = [](membership::FormationMode mode) {
    WorldConfig cfg = ring_cfg(4, 17);
    cfg.ring.formation = mode;
    World world(cfg);
    world.partition_at(sim::sec(1), {{0, 1}, {2, 3}});
    world.heal_at(sim::sec(3));
    world.run_until(sim::sec(8));
    EXPECT_TRUE(world.check_vs_safety().empty());
    return ring_count(world, "ring.views_installed");
  };
  EXPECT_GT(run(membership::FormationMode::kOneRound),
            run(membership::FormationMode::kThreeRound));
}

TEST(TokenRing, StatsAccumulate) {
  World world(ring_cfg(3, 9));
  world.partition_at(sim::msec(100), {{0, 1}, {2}});
  world.run_until(sim::sec(3));
  EXPECT_GT(ring_count(world, "ring.token_rotations"), 10u);
  EXPECT_GT(ring_count(world, "ring.probes_sent"), 0u)
      << "partitioned nodes probe the other side";
  EXPECT_GT(ring_count(world, "ring.views_installed"), 0u);
  EXPECT_GT(ring_count(world, "ring.formation_rounds"), 0u);
}

}  // namespace
}  // namespace vsg
