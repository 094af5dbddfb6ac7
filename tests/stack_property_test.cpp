// Performance/fault-tolerance properties over the full stack: once the
// failure status stabilizes to a consistent partition whose component Q
// contains a quorum, the recorded timed trace must satisfy
// VS-property(b, d, Q) at the group interface and TO-property(b+d, d, Q)
// at the broadcast interface (Theorem 7.1). Plus randomized churn fuzzing
// with safety checked on every seed.

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "harness/stats.hpp"
#include "harness/world.hpp"

namespace vsg {
namespace {

using harness::Backend;
using harness::World;
using harness::WorldConfig;

// Generous analytic bounds for the token-ring back end, per Section 8:
//   b = 9*delta + max{pi + (n+3)*delta, mu},   d_impl = 3*(pi + n*delta).
sim::Time ring_b(const membership::TokenRingConfig& cfg, int n) {
  const sim::Time token = cfg.pi + (n + 3) * cfg.delta;
  return 9 * cfg.delta + std::max(token, cfg.mu);
}
sim::Time ring_d(const membership::TokenRingConfig& cfg, int n) {
  return 3 * (cfg.pi + n * cfg.delta);
}

TEST(StackProperty, StableGroupSatisfiesVSAndTOProperties) {
  WorldConfig cfg;
  cfg.n = 4;
  cfg.backend = Backend::kTokenRing;
  cfg.seed = 61;
  World world(cfg);
  // The "partition" is the full group: all links stay good, but we issue
  // the status events so the premise of the properties is explicit.
  std::set<ProcId> q{0, 1, 2, 3};
  world.partition_at(sim::msec(100), {{0, 1, 2, 3}});
  const auto traffic = harness::steady_traffic({0, 2}, 20, sim::sec(1), sim::msec(40));
  traffic.apply(world);
  world.run_until(sim::sec(12));

  const sim::Time b = ring_b(cfg.ring, 4);
  const sim::Time d = ring_d(cfg.ring, 4);

  const auto vs = world.vs_report(q, d, sim::sec(10));
  ASSERT_TRUE(vs.stability.premise_holds) << vs.stability.why_not;
  EXPECT_TRUE(vs.views_converged);
  EXPECT_TRUE(vs.holds_with(b)) << "required l' = "
                                << (vs.required_lprime ? *vs.required_lprime : -1)
                                << " vs b = " << b;
  EXPECT_GT(vs.messages_checked, 0u);

  const auto to = world.to_report(q, d, sim::sec(10));
  ASSERT_TRUE(to.stability.premise_holds);
  EXPECT_TRUE(to.holds_with(b + d)) << "required l' = "
                                    << (to.required_lprime ? *to.required_lprime : -1)
                                    << " vs b+d = " << (b + d);
}

TEST(StackProperty, MajorityComponentSatisfiesPropertiesAfterPartition) {
  WorldConfig cfg;
  cfg.n = 5;
  cfg.backend = Backend::kTokenRing;
  cfg.seed = 67;
  World world(cfg);
  std::set<ProcId> q{0, 1, 2};
  world.partition_at(sim::sec(1), {{0, 1, 2}, {3, 4}});
  // Traffic inside the future majority component, after stabilization.
  const auto traffic = harness::steady_traffic({0, 1}, 15, sim::sec(4), sim::msec(50));
  traffic.apply(world);
  world.run_until(sim::sec(15));

  const sim::Time b = ring_b(cfg.ring, 3);
  const sim::Time d = ring_d(cfg.ring, 3);

  const auto vs = world.vs_report(q, d, sim::sec(12));
  ASSERT_TRUE(vs.stability.premise_holds) << vs.stability.why_not;
  EXPECT_TRUE(vs.views_converged)
      << (vs.violations.empty() ? "" : vs.violations.front());
  EXPECT_TRUE(vs.holds_with(b));

  const auto to = world.to_report(q, d, sim::sec(12));
  EXPECT_TRUE(to.holds_with(b + d))
      << (to.violations.empty() ? "ok-but-late" : to.violations.front());
}

TEST(StackProperty, SpecBackendSatisfiesProperties) {
  WorldConfig cfg;
  cfg.n = 4;
  cfg.backend = Backend::kSpec;
  cfg.seed = 71;
  World world(cfg);
  std::set<ProcId> q{0, 1, 2, 3};
  world.partition_at(sim::msec(100), {{0, 1, 2, 3}});
  const auto traffic = harness::steady_traffic({1, 3}, 10, sim::sec(1), sim::msec(30));
  traffic.apply(world);
  world.run_until(sim::sec(8));

  // SpecVS: stabilization within view_form_delay + pump latency; delivery
  // within a few pump hops.
  const sim::Time b = cfg.spec_vs.view_form_delay + sim::msec(20);
  const sim::Time d = sim::msec(50);
  const auto vs = world.vs_report(q, d, sim::sec(7));
  ASSERT_TRUE(vs.stability.premise_holds);
  EXPECT_TRUE(vs.holds_with(b));
  const auto to = world.to_report(q, d, sim::sec(7));
  EXPECT_TRUE(to.holds_with(b + d));
}

// The reports' measured lags and the bench latency summaries read one
// trace index: over the same window, from the split point l + l' on, they
// must agree.
TEST(StackProperty, ReportLagsAgreeWithLatencySummaries) {
  WorldConfig cfg;
  cfg.n = 5;
  cfg.backend = Backend::kTokenRing;
  cfg.seed = 67;
  World world(cfg);
  const std::set<ProcId> q{0, 1, 2};
  world.partition_at(sim::sec(1), {{0, 1, 2}, {3, 4}});
  harness::steady_traffic({0, 1}, 15, sim::sec(4), sim::msec(50)).apply(world);
  world.run_until(sim::sec(15));
  const sim::Time d = ring_d(cfg.ring, 3);
  const auto& trace = world.recorder().events();

  const auto to = world.to_report(q, d);
  ASSERT_TRUE(to.required_lprime.has_value());
  const auto to_lat =
      harness::to_delivery_latency(trace, q, to.stability.l + *to.required_lprime);
  EXPECT_EQ(to_lat.incomplete, 0u);
  EXPECT_GT(to_lat.count, 0u);
  EXPECT_EQ(to.max_delivery_lag, to_lat.max);

  const auto vs = world.vs_report(q, d);
  ASSERT_TRUE(vs.required_lprime.has_value());
  const auto vs_lat =
      harness::vs_safe_latency(trace, q, cfg.n, cfg.n, vs.stability.l + *vs.required_lprime);
  EXPECT_EQ(vs_lat.incomplete, 0u);
  EXPECT_GT(vs_lat.count, 0u);
  EXPECT_EQ(vs.max_safe_lag, vs_lat.max);
}

class StackChurnFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StackChurnFuzz, SafetyHoldsAndStabilizes) {
  const std::uint64_t seed = GetParam();
  WorldConfig cfg;
  cfg.n = 5;
  cfg.backend = Backend::kTokenRing;
  cfg.seed = seed;
  World world(cfg);
  util::Rng rng(seed * 977 + 3);

  // Random churn for 5 simulated seconds, then stabilize to a majority
  // component {0,1,2}; traffic runs throughout.
  auto churn = harness::random_churn(5, 12, sim::msec(200), sim::sec(5), {{0, 1, 2}, {3, 4}},
                                     rng);
  churn.apply(world);
  auto traffic = harness::random_traffic(5, 30, sim::msec(100), sim::sec(8), rng);
  traffic.apply(world);
  world.run_until(sim::sec(20));

  const auto to_violations = world.check_to_safety();
  EXPECT_TRUE(to_violations.empty())
      << "seed " << seed << ": " << to_violations.front();
  const auto vs_violations = world.check_vs_safety();
  EXPECT_TRUE(vs_violations.empty())
      << "seed " << seed << ": " << vs_violations.front();

  // The stabilized component must converge to one view with membership Q.
  const auto vs = world.vs_report({0, 1, 2}, ring_d(cfg.ring, 3), sim::sec(18));
  ASSERT_TRUE(vs.stability.premise_holds) << vs.stability.why_not;
  EXPECT_TRUE(vs.views_converged) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackChurnFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

}  // namespace
}  // namespace vsg
