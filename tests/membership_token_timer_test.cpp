// Token-loss timer regression tests (Section 8 recovery path).
//
// Audit result for the re-arm path in token_ring.cpp: every timer callback
// (launch_tick, token-check, probe) captures the view generation at arm
// time and returns early when the generation moved on, so a timer armed in
// a dead view can neither fire into a new view nor fail to be replaced —
// installing a view always arms a fresh generation's timers. These tests
// pin the observable consequence: a lost token (holder's outgoing links go
// dark mid-circulation) is always recovered via the token-check timeout,
// with no stalled ring and no safety violation, including under view churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "harness/scenario.hpp"
#include "harness/world.hpp"

namespace vsg::harness {
namespace {

WorldConfig ring_config(int n, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.n = n;
  cfg.backend = Backend::kTokenRing;
  cfg.seed = seed;
  return cfg;
}

void expect_converged(World& w, int n, std::size_t min_delivered) {
  const auto& reference = w.stack().process(0).delivered();
  EXPECT_GE(reference.size(), min_delivered);
  for (ProcId p = 1; p < n; ++p)
    EXPECT_EQ(w.stack().process(p).delivered(), reference) << "processor " << p;
  EXPECT_TRUE(w.check_to_safety().empty());
  EXPECT_TRUE(w.check_vs_safety().empty());
}

// One processor's outgoing links go dark for a window long past the token
// timeout, so any token it holds or receives is lost. The ring must reform
// and, after the window, deliver traffic from every processor again.
TEST(TokenTimer, LostTokenRecoveredViaTimeout) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    World w(ring_config(4, seed));
    for (ProcId q = 1; q < 4; ++q) {
      w.link_status_at(sim::msec(500), 0, q, sim::Status::kBad);
      w.link_status_at(sim::msec(900), 0, q, sim::Status::kGood);
    }
    for (int k = 0; k < 6; ++k)
      w.bcast_at(sim::msec(300 + 150 * k), static_cast<ProcId>(k % 4),
                 "v" + std::to_string(k));
    w.bcast_at(sim::sec(3), 0, "after-recovery");
    w.run_until(sim::sec(10));
    expect_converged(w, 4, 7);
  }
}

// Same loss window while the membership is also churning (partition during
// the window, heal after): the stale-generation guard must keep old-view
// token-check timers from misfiring into the views formed meanwhile.
TEST(TokenTimer, LossWindowUnderViewChurn) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    World w(ring_config(5, seed));
    for (ProcId q = 0; q < 5; ++q) {
      if (q == 2) continue;
      w.link_status_at(sim::msec(400), 2, q, sim::Status::kBad);
      w.link_status_at(sim::msec(800), 2, q, sim::Status::kGood);
    }
    w.partition_at(sim::msec(600), {{0, 1}, {2, 3, 4}});
    w.heal_at(sim::msec(1200));
    for (int k = 0; k < 8; ++k)
      w.bcast_at(sim::msec(200 + 200 * k), static_cast<ProcId>(k % 5),
                 "c" + std::to_string(k));
    w.run_until(sim::sec(12));
    expect_converged(w, 5, 8);
  }
}

// Back-to-back loss windows: each recovery re-arms the next generation's
// timers; a missing re-arm would stall the second window's recovery.
TEST(TokenTimer, RepeatedLossWindowsKeepRecovering) {
  World w(ring_config(3, 7));
  for (int round = 0; round < 3; ++round) {
    const sim::Time base = sim::msec(400 + 1500 * round);
    for (ProcId q = 1; q < 3; ++q) {
      w.link_status_at(base, 0, q, sim::Status::kBad);
      w.link_status_at(base + sim::msec(400), 0, q, sim::Status::kGood);
    }
    w.bcast_at(base + sim::msec(700), static_cast<ProcId>(round % 3),
               "r" + std::to_string(round));
  }
  w.run_until(sim::sec(12));
  expect_converged(w, 3, 3);
}

// --- The check's poll lattice ---------------------------------------------
//
// A view's token-loss checks run only at its install time plus whole
// multiples of max(delta, pi/4). Between a token and its deadline a check
// sleeps to the first lattice point past the deadline instead of polling
// every step, so a member must still propose at exactly the instant an
// every-step poll chain would have.

// The instant an every-step poll chain proposes: the first lattice point
// install + k*step (k >= 1) that lies past the token deadline and after
// `good_from`, when the member resumes running.
sim::Time poll_chain_instant(sim::Time install, sim::Time last_token_seen, sim::Time step,
                             sim::Time timeout, sim::Time good_from) {
  for (sim::Time t = install + step;; t += step)
    if (t - last_token_seen > timeout && t > good_from) return t;
}

// What the step loop saw of processor 1 up to its first proposal after
// `silent_from`.
struct Observed {
  sim::Time install = -1;          // install time of the view it proposed from
  sim::Time last_token_seen = -1;  // its last token in that view
  sim::Time proposed = -1;         // the proposal instant
};

// Runs event by event until a formation round starts after `silent_from`.
// Only processor 1 can start one then: processor 0 is stopped and
// processor 2 sits partitioned away in a one-member view.
Observed run_to_proposal(World& w, sim::Time silent_from) {
  const obs::Counter* rounds = w.metrics().find_counter("ring.formation_rounds");
  EXPECT_NE(rounds, nullptr);
  const membership::Node& node = w.token_ring()->node(1);
  Observed seen;
  std::optional<core::ViewId> view;
  std::uint64_t before = rounds->value();
  while (w.simulator().now() < sim::sec(10) && w.simulator().step()) {
    const sim::Time now = w.simulator().now();
    if (node.view().has_value() && (!view.has_value() || !(node.view()->id == *view))) {
      view = node.view()->id;
      seen.install = now;
    }
    if (rounds->value() != before && now > silent_from) {
      seen.last_token_seen = node.last_token_seen();
      seen.proposed = now;
      return seen;
    }
    before = rounds->value();
  }
  ADD_FAILURE() << "no proposal after " << silent_from;
  return seen;
}

// {0,1} re-form apart from 2, so the view's install time is off the 10 ms
// grid; then the leader stops and the ring goes silent at 1.
TEST(TokenTimer, SilentRingProposesAtThePollChainInstant) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    World w(ring_config(3, seed));
    w.partition_at(sim::msec(300), {{0, 1}, {2}});
    w.proc_status_at(sim::msec(1500), 0, sim::Status::kBad);
    const Observed seen = run_to_proposal(w, sim::msec(1500));
    const auto& cfg = w.config().ring;
    const sim::Time step = std::max<sim::Time>(cfg.delta, cfg.pi / 4);
    ASSERT_GT(seen.install, sim::msec(300)) << "seed " << seed;
    EXPECT_EQ(seen.proposed, poll_chain_instant(seen.install, seen.last_token_seen, step,
                                                cfg.token_timeout(2), 0))
        << "seed " << seed;
  }
}

// Processor 1 stops just after the ring goes silent and resumes long past
// its deadline: it proposes at the first lattice point after it resumes.
TEST(TokenTimer, MemberBadAcrossItsDeadlineProposesOnceGood) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    World w(ring_config(3, seed));
    w.partition_at(sim::msec(300), {{0, 1}, {2}});
    w.proc_status_at(sim::msec(1500), 0, sim::Status::kBad);
    w.proc_status_at(sim::msec(1501), 1, sim::Status::kBad);
    const sim::Time good_from = sim::msec(2000) + sim::usec(3700);
    w.proc_status_at(good_from, 1, sim::Status::kGood);
    const Observed seen = run_to_proposal(w, sim::msec(1500));
    const auto& cfg = w.config().ring;
    const sim::Time step = std::max<sim::Time>(cfg.delta, cfg.pi / 4);
    ASSERT_NE((good_from - seen.install) % step, 0) << "resume on the lattice: seed " << seed;
    ASSERT_LT(seen.last_token_seen + cfg.token_timeout(2), good_from) << "seed " << seed;
    EXPECT_EQ(seen.proposed, poll_chain_instant(seen.install, seen.last_token_seen, step,
                                                cfg.token_timeout(2), good_from))
        << "seed " << seed;
  }
}

// A one-member view can never time out, so it arms no check: 10 s of
// virtual time execute only the leader's launch ticks (at delta, then
// every pi) and the probe ticks (the first within mu, then at least mu
// apart). An every-step check would add 1000 more.
TEST(TokenTimer, OneMemberViewRunsNoTokenCheck) {
  World w(ring_config(1, 9));
  const sim::Time horizon = sim::sec(10);
  w.run_until(horizon);
  const auto& cfg = w.config().ring;
  const std::size_t launches = static_cast<std::size_t>((horizon - cfg.delta) / cfg.pi + 1);
  const std::size_t probes = static_cast<std::size_t>(horizon / cfg.mu + 1);
  EXPECT_LE(w.simulator().events_processed(), launches + probes);
}

}  // namespace
}  // namespace vsg::harness
