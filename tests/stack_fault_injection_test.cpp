// Fault injection: ugly links (drops, unbounded delays, byte corruption)
// and ugly processors (nondeterministic speed). Safety must hold through
// all of it — the paper's safety machine has no timing assumptions — and
// the system must recover once the failure status returns to good.

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "harness/world.hpp"

namespace vsg {
namespace {

using harness::Backend;
using harness::World;
using harness::WorldConfig;

TEST(FaultInjection, UglyLinksDropAndDelayButSafetyHolds) {
  WorldConfig cfg;
  cfg.n = 4;
  cfg.backend = Backend::kTokenRing;
  cfg.seed = 77;
  cfg.link.ugly_drop = 0.4;
  World world(cfg);
  // Make the 2<->3 links ugly for a while.
  world.link_status_at(sim::msec(100), 2, 3, sim::Status::kUgly);
  world.link_status_at(sim::msec(100), 3, 2, sim::Status::kUgly);
  harness::steady_traffic({0, 2}, 10, sim::msec(200), sim::msec(50)).apply(world);
  world.link_status_at(sim::sec(3), 2, 3, sim::Status::kGood);
  world.link_status_at(sim::sec(3), 3, 2, sim::Status::kGood);
  world.run_until(sim::sec(10));

  const auto to_violations = world.check_to_safety();
  EXPECT_TRUE(to_violations.empty()) << to_violations.front();
  const auto vs_violations = world.check_vs_safety();
  EXPECT_TRUE(vs_violations.empty()) << vs_violations.front();
  // Once good again, everything is delivered everywhere.
  const auto& reference = world.stack().process(0).delivered();
  EXPECT_EQ(reference.size(), 20u);
  for (ProcId p = 1; p < 4; ++p)
    EXPECT_EQ(world.stack().process(p).delivered(), reference);
}

TEST(FaultInjection, CorruptedPacketsAreDroppedNotMisinterpreted) {
  WorldConfig cfg;
  cfg.n = 3;
  cfg.backend = Backend::kTokenRing;
  cfg.seed = 79;
  cfg.link.ugly_drop = 0.1;
  cfg.link.ugly_corrupt = 0.8;  // most surviving ugly packets are garbled
  cfg.link.ugly_max_delay = sim::msec(40);
  World world(cfg);
  // All links ugly for two seconds: heavy corruption on the wire.
  for (ProcId p = 0; p < 3; ++p)
    for (ProcId q = 0; q < 3; ++q)
      if (p != q) world.link_status_at(sim::msec(100), p, q, sim::Status::kUgly);
  harness::steady_traffic({0, 1, 2}, 8, sim::msec(200), sim::msec(80)).apply(world);
  world.heal_at(sim::sec(3));
  world.run_until(sim::sec(12));

  const auto* corrupted = world.metrics().find_counter("net.packets_corrupted");
  ASSERT_NE(corrupted, nullptr);
  EXPECT_GT(corrupted->value(), 0u)
      << "the injector must actually have corrupted something";
  const auto to_violations = world.check_to_safety();
  EXPECT_TRUE(to_violations.empty()) << to_violations.front();
  const auto vs_violations = world.check_vs_safety();
  EXPECT_TRUE(vs_violations.empty()) << vs_violations.front();
  // Recovery: all values delivered everywhere after the network is good.
  const auto& reference = world.stack().process(0).delivered();
  EXPECT_EQ(reference.size(), 24u);
  for (ProcId p = 1; p < 3; ++p)
    EXPECT_EQ(world.stack().process(p).delivered(), reference);
}

TEST(FaultInjection, UglyProcessorSlowsButDoesNotCorrupt) {
  WorldConfig cfg;
  cfg.n = 3;
  cfg.backend = Backend::kTokenRing;
  cfg.seed = 83;
  World world(cfg);
  world.proc_status_at(sim::msec(100), 1, sim::Status::kUgly);
  harness::steady_traffic({0, 2}, 10, sim::msec(200), sim::msec(60)).apply(world);
  world.proc_status_at(sim::sec(4), 1, sim::Status::kGood);
  world.run_until(sim::sec(12));

  const auto to_violations = world.check_to_safety();
  EXPECT_TRUE(to_violations.empty()) << to_violations.front();
  const auto vs_violations = world.check_vs_safety();
  EXPECT_TRUE(vs_violations.empty()) << vs_violations.front();
  const auto& reference = world.stack().process(0).delivered();
  EXPECT_EQ(reference.size(), 20u);
  EXPECT_EQ(world.stack().process(1).delivered(), reference)
      << "the slow processor still converges to the common order";
}

TEST(FaultInjection, FlappingProcessorNeverBreaksSafety) {
  WorldConfig cfg;
  cfg.n = 4;
  cfg.backend = Backend::kTokenRing;
  cfg.seed = 89;
  World world(cfg);
  // Processor 3 flaps bad/good repeatedly while traffic flows.
  for (int k = 0; k < 5; ++k) {
    world.proc_status_at(sim::msec(300 + 600 * k), 3, sim::Status::kBad);
    world.proc_status_at(sim::msec(600 + 600 * k), 3, sim::Status::kGood);
  }
  harness::steady_traffic({0, 1}, 15, sim::msec(200), sim::msec(100)).apply(world);
  world.run_until(sim::sec(15));

  const auto to_violations = world.check_to_safety();
  EXPECT_TRUE(to_violations.empty()) << to_violations.front();
  const auto vs_violations = world.check_vs_safety();
  EXPECT_TRUE(vs_violations.empty()) << vs_violations.front();
  // The quorum side (0,1,2) always delivers everything.
  EXPECT_EQ(world.stack().process(0).delivered().size(), 30u);
}

class FaultInjectionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultInjectionFuzz, MixedUglinessStaysSafe) {
  const auto seed = GetParam();
  WorldConfig cfg;
  cfg.n = 5;
  cfg.backend = Backend::kTokenRing;
  cfg.seed = seed;
  cfg.link.ugly_corrupt = 0.3;
  World world(cfg);
  util::Rng rng(seed * 7919 + 1);

  // Random link status flips including ugly, plus a random ugly processor
  // window, then full stabilization.
  harness::random_churn(5, 15, sim::msec(100), sim::sec(4), {{0, 1, 2, 3, 4}}, rng)
      .apply(world);
  const auto ugly_proc = static_cast<ProcId>(rng.below(5));
  world.proc_status_at(sim::msec(500), ugly_proc, sim::Status::kUgly);
  world.proc_status_at(sim::sec(3), ugly_proc, sim::Status::kGood);
  harness::random_traffic(5, 20, sim::msec(100), sim::sec(6), rng).apply(world);
  world.run_until(sim::sec(18));

  const auto to_violations = world.check_to_safety();
  EXPECT_TRUE(to_violations.empty()) << "seed " << seed << ": " << to_violations.front();
  const auto vs_violations = world.check_vs_safety();
  EXPECT_TRUE(vs_violations.empty()) << "seed " << seed << ": " << vs_violations.front();
  // Everything heals to one group that delivers all 20 values.
  EXPECT_EQ(world.stack().process(0).delivered().size(), 20u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultInjectionFuzz,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107, 108));

}  // namespace
}  // namespace vsg
