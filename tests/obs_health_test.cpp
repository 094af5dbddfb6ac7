// obs::Health rule semantics over synthetic sample streams: each rule fires
// once per episode, re-arms on recovery, respects the liveness probe, and
// skips cleanly when a backend does not publish the counters it watches.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace vsg::obs {
namespace {

HealthConfig quiet_config() {
  HealthConfig cfg;
  cfg.token_stall = false;
  cfg.backlog_growth = false;
  cfg.view_convergence = false;
  return cfg;
}

MetricsSnapshot ring_snap(std::uint64_t rotations) {
  MetricsSnapshot snap;
  snap.counters.emplace_back("ring.token_rotations", rotations);
  return snap;
}

MetricsSnapshot backlog_snap(std::int64_t depth) {
  MetricsSnapshot snap;
  snap.gauges.emplace_back("ring.backlog_depth", depth);
  return snap;
}

MetricsSnapshot view_snap(std::uint64_t rounds, std::uint64_t established) {
  MetricsSnapshot snap;
  snap.counters.emplace_back("ring.formation_rounds", rounds);
  snap.counters.emplace_back("to.primary_established", established);
  return snap;
}

// --- token_stall -----------------------------------------------------------

TEST(TokenStall, FlatCounterFiresOncePerEpisodeAndRearmsOnProgress) {
  HealthConfig cfg = quiet_config();
  cfg.token_stall = true;
  cfg.stall_after = sim::msec(500);
  Health health(cfg);

  sim::Time t = 0;
  for (int i = 0; i < 12; ++i) health.observe("aggregate", t += sim::msec(100), ring_snap(5));
  ASSERT_EQ(health.events().size(), 1u) << "edge-triggered: one event per episode";
  EXPECT_EQ(health.events()[0].rule, "token_stall");
  EXPECT_EQ(health.events()[0].series, "aggregate");
  EXPECT_EQ(health.events()[0].at, sim::msec(600));

  // Progress re-arms; a second flat stretch is a new episode.
  health.observe("aggregate", t += sim::msec(100), ring_snap(6));
  for (int i = 0; i < 7; ++i) health.observe("aggregate", t += sim::msec(100), ring_snap(6));
  EXPECT_EQ(health.events().size(), 2u);
}

TEST(TokenStall, FlatAtZeroIsARingThatNeverLaunched) {
  HealthConfig cfg = quiet_config();
  cfg.token_stall = true;
  cfg.stall_after = sim::msec(500);
  Health health(cfg);
  sim::Time t = 0;
  for (int i = 0; i < 8; ++i) health.observe("aggregate", t += sim::msec(100), ring_snap(0));
  EXPECT_EQ(health.events().size(), 1u);
}

TEST(TokenStall, AbsentCounterMeansNoRingAndNoVerdict) {
  // Spec-backend Worlds publish no ring.* counters; the rule must not read
  // the absence as "flat at zero" and cry stall forever.
  HealthConfig cfg = quiet_config();
  cfg.token_stall = true;
  cfg.stall_after = sim::msec(200);
  Health health(cfg);
  sim::Time t = 0;
  for (int i = 0; i < 20; ++i)
    health.observe("aggregate", t += sim::msec(100), MetricsSnapshot{});
  EXPECT_TRUE(health.events().empty());
}

TEST(TokenStall, LivenessProbeGatesTheRule) {
  HealthConfig cfg = quiet_config();
  cfg.token_stall = true;
  cfg.stall_after = sim::msec(300);
  Health health(cfg);
  bool live = false;
  health.set_liveness([&live] { return live; });

  // All members down: a flat counter is expected, not a stall.
  sim::Time t = 0;
  for (int i = 0; i < 10; ++i) health.observe("aggregate", t += sim::msec(100), ring_snap(3));
  EXPECT_TRUE(health.events().empty());

  // Members come back; only now does flat time count.
  live = true;
  for (int i = 0; i < 4; ++i) health.observe("aggregate", t += sim::msec(100), ring_snap(3));
  EXPECT_EQ(health.events().size(), 1u);
}

// --- backlog_growth --------------------------------------------------------

TEST(BacklogGrowth, StrictGrowthStreakFiresPlateauDoesNot) {
  HealthConfig cfg = quiet_config();
  cfg.backlog_growth = true;
  cfg.growth_windows = 4;
  Health health(cfg);

  sim::Time t = 0;
  std::int64_t depth = 0;
  for (int i = 0; i < 4; ++i) health.observe("aggregate", t += sim::msec(100), backlog_snap(++depth));
  EXPECT_TRUE(health.events().empty()) << "streak of 3 increases after baseline";
  health.observe("aggregate", t += sim::msec(100), backlog_snap(++depth));
  ASSERT_EQ(health.events().size(), 1u);
  EXPECT_EQ(health.events()[0].rule, "backlog_growth");
  EXPECT_EQ(health.events()[0].series, "aggregate");

  // Further growth within the same episode stays a single event.
  health.observe("aggregate", t += sim::msec(100), backlog_snap(++depth));
  EXPECT_EQ(health.events().size(), 1u);
}

TEST(BacklogGrowth, PlateauNeitherExtendsNorResets) {
  HealthConfig cfg = quiet_config();
  cfg.backlog_growth = true;
  cfg.growth_windows = 3;
  Health health(cfg);

  sim::Time t = 0;
  health.observe("aggregate", t += sim::msec(100), backlog_snap(1));
  health.observe("aggregate", t += sim::msec(100), backlog_snap(2));
  health.observe("aggregate", t += sim::msec(100), backlog_snap(3));
  health.observe("aggregate", t += sim::msec(100), backlog_snap(3));  // plateau
  EXPECT_TRUE(health.events().empty());
  health.observe("aggregate", t += sim::msec(100), backlog_snap(4));  // streak hits 3
  EXPECT_EQ(health.events().size(), 1u);
}

TEST(BacklogGrowth, DrainRearmsTheEpisode) {
  HealthConfig cfg = quiet_config();
  cfg.backlog_growth = true;
  cfg.growth_windows = 2;
  Health health(cfg);

  sim::Time t = 0;
  for (std::int64_t d : {1, 2, 3}) health.observe("aggregate", t += sim::msec(100), backlog_snap(d));
  ASSERT_EQ(health.events().size(), 1u);
  health.observe("aggregate", t += sim::msec(100), backlog_snap(0));  // drain
  for (std::int64_t d : {1, 2, 3}) health.observe("aggregate", t += sim::msec(100), backlog_snap(d));
  EXPECT_EQ(health.events().size(), 2u) << "a fresh climb after a drain is a new episode";
}

TEST(BacklogGrowth, WatchesPendingLabelsIndependently) {
  HealthConfig cfg = quiet_config();
  cfg.backlog_growth = true;
  cfg.growth_windows = 2;
  Health health(cfg);

  sim::Time t = 0;
  for (std::int64_t d : {1, 2, 3, 4}) {
    MetricsSnapshot snap;
    snap.gauges.emplace_back("ring.backlog_depth", 0);  // flat, never fires
    snap.gauges.emplace_back("to.pending_labels", d);
    health.observe("aggregate", t += sim::msec(100), snap);
  }
  ASSERT_EQ(health.events().size(), 1u);
  EXPECT_NE(health.events()[0].detail.find("to.pending_labels"), std::string::npos);
}

// --- view_convergence ------------------------------------------------------

TEST(ViewConvergence, FormationWithoutPrimaryFiresAfterBound) {
  HealthConfig cfg = quiet_config();
  cfg.view_convergence = true;
  cfg.convergence_bound = sim::msec(400);
  Health health(cfg);

  sim::Time t = 0;
  health.observe("aggregate", t += sim::msec(100), view_snap(0, 1));
  health.observe("aggregate", t += sim::msec(100), view_snap(2, 1));  // formation starts
  health.observe("aggregate", t += sim::msec(100), view_snap(3, 1));
  health.observe("aggregate", t += sim::msec(100), view_snap(3, 1));
  EXPECT_TRUE(health.events().empty()) << "bound not yet elapsed";
  health.observe("aggregate", t += sim::msec(200), view_snap(3, 1));
  ASSERT_EQ(health.events().size(), 1u);
  EXPECT_EQ(health.events()[0].rule, "view_convergence");
}

TEST(ViewConvergence, PrimaryEstablishmentSettlesTheEpisode) {
  HealthConfig cfg = quiet_config();
  cfg.view_convergence = true;
  cfg.convergence_bound = sim::msec(400);
  Health health(cfg);

  sim::Time t = 0;
  health.observe("aggregate", t += sim::msec(100), view_snap(0, 0));
  health.observe("aggregate", t += sim::msec(100), view_snap(2, 0));  // formation starts
  health.observe("aggregate", t += sim::msec(100), view_snap(2, 1));  // primary lands in time
  for (int i = 0; i < 10; ++i)
    health.observe("aggregate", t += sim::msec(100), view_snap(2, 1));
  EXPECT_TRUE(health.events().empty());

  // A later formation burst that never converges is its own episode.
  health.observe("aggregate", t += sim::msec(100), view_snap(5, 1));
  health.observe("aggregate", t += sim::msec(500), view_snap(5, 1));
  EXPECT_EQ(health.events().size(), 1u);
}

TEST(ViewConvergence, FormationAndPrimaryInOneSampleCloseTheirOwnEpisode) {
  HealthConfig cfg = quiet_config();
  cfg.view_convergence = true;
  cfg.convergence_bound = sim::msec(400);
  Health health(cfg);

  sim::Time t = 0;
  health.observe("aggregate", t += sim::msec(100), view_snap(0, 0));
  // The formation round and the primary it produced land in one window.
  health.observe("aggregate", t += sim::msec(100), view_snap(2, 1));
  for (int i = 0; i < 10; ++i)
    health.observe("aggregate", t += sim::msec(100), view_snap(2, 1));
  EXPECT_TRUE(health.events().empty()) << "the episode settled in the window that armed it";
}

TEST(ViewConvergence, FormationActivityAloneStillFires) {
  HealthConfig cfg = quiet_config();
  cfg.view_convergence = true;
  cfg.convergence_bound = sim::msec(400);
  Health health(cfg);

  sim::Time t = 0;
  health.observe("aggregate", t += sim::msec(100), view_snap(0, 1));
  health.observe("aggregate", t += sim::msec(100), view_snap(1, 1));  // arms at 200 ms
  for (int i = 0; i < 3; ++i)
    health.observe("aggregate", t += sim::msec(100), view_snap(2 + i, 1));
  EXPECT_TRUE(health.events().empty()) << "bound not yet elapsed";
  health.observe("aggregate", t += sim::msec(100), view_snap(5, 1));
  ASSERT_EQ(health.events().size(), 1u);
  EXPECT_EQ(health.events()[0].rule, "view_convergence");
  EXPECT_EQ(health.events()[0].at, sim::msec(600));
}

// --- shared machinery ------------------------------------------------------

TEST(Health, SeriesAreTrackedIndependently) {
  HealthConfig cfg = quiet_config();
  cfg.token_stall = true;
  cfg.stall_after = sim::msec(300);
  Health health(cfg);

  sim::Time t = 0;
  for (int i = 0; i < 6; ++i) {
    t += sim::msec(100);
    health.observe("shard0", t, ring_snap(7));                               // stalled
    health.observe("shard1", t, ring_snap(static_cast<std::uint64_t>(i)));  // progressing
  }
  ASSERT_EQ(health.events().size(), 1u);
  EXPECT_EQ(health.events()[0].series, "shard0");
}

TEST(Health, BoundMetricsCountEventsPerRule) {
  HealthConfig cfg;  // all rules on
  cfg.stall_after = sim::msec(300);
  cfg.growth_windows = 2;
  Health health(cfg);
  MetricsRegistry reg;
  health.bind_metrics(reg);

  sim::Time t = 0;
  for (std::int64_t d : {1, 2, 3}) {
    MetricsSnapshot snap = backlog_snap(d);
    snap.counters.emplace_back("ring.token_rotations", 9);
    health.observe("aggregate", t += sim::msec(200), snap);
  }
  EXPECT_EQ(reg.counter("health.backlog_growth").value(), 1u);
  EXPECT_EQ(reg.counter("health.token_stall").value(), 1u);
  EXPECT_EQ(reg.counter("health.view_convergence").value(), 0u);
}

TEST(Health, VerdictFormatIsTheCampaignContract) {
  HealthConfig cfg = quiet_config();
  cfg.token_stall = true;
  cfg.stall_after = sim::msec(100);
  Health health(cfg);
  health.observe("shard2", sim::msec(100), ring_snap(4));
  health.observe("shard2", sim::msec(300), ring_snap(4));
  ASSERT_EQ(health.verdicts().size(), 1u);
  EXPECT_EQ(health.verdicts()[0], to_verdict(health.events()[0]));
  EXPECT_EQ(health.verdicts()[0].rfind("health: token_stall [shard2] at 300000us: ", 0), 0u)
      << health.verdicts()[0];
}

}  // namespace
}  // namespace vsg::obs
