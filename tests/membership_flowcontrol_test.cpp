// Flow-control contract at the boarding site (docs/FLOWCONTROL.md): the
// per-pass byte budget makes progress even when a single payload exceeds
// it, cuts off exactly at the budget boundary, and its value floor boards
// one client value in a pass whose budget state-exchange traffic spent.
//
// Payloads are crafted raw VS messages with exact sizes: first byte 0x7f
// (no VSTOTO tag — a client value to the ring, warn-dropped by the TO
// layer) or wire::kPayloadSummary (state-exchange traffic). The observable
// is the gprcv trace: entries boarded in the same token pass deliver at the
// same simulated instant, entries split across passes deliver at distinct
// ones. Senders are non-leaders (the leader processes the token twice per
// lap — launch and return-park — which would merge two passes into one
// delivery batch at the observer).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "harness/world.hpp"

namespace vsg {
namespace {

using harness::Backend;
using harness::World;
using harness::WorldConfig;

constexpr std::uint8_t kBulkTag = 0x7f;

WorldConfig ring_cfg(int n, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.n = n;
  cfg.backend = Backend::kTokenRing;
  cfg.seed = seed;
  return cfg;
}

util::Bytes payload(std::uint8_t tag, std::uint8_t id, std::size_t size) {
  util::Bytes b(size, 0);
  b[0] = tag;
  b[1] = id;
  return b;
}

struct Rcv {
  sim::Time at = 0;
  std::uint8_t tag = 0;
  std::uint8_t id = 0;
};

/// Crafted-payload deliveries at `dst` from `src`, in delivery order,
/// starting at `from` (skips the state-exchange traffic of view formation).
std::vector<Rcv> crafted_rcvs(const World& world, ProcId src, ProcId dst, sim::Time from) {
  std::vector<Rcv> out;
  for (const auto& te : world.recorder().events()) {
    if (te.at < from) continue;
    const auto* e = trace::as<trace::GprcvEvent>(te);
    if (e == nullptr || e->src != src || e->dst != dst) continue;
    const auto& m = e->m;
    if (m.size() < 2) continue;
    if (m[0] != kBulkTag && m[0] != wire::kPayloadSummary) continue;
    out.push_back({te.at, m[0], m[1]});
  }
  return out;
}

TEST(FlowControl, BudgetSmallerThanOnePayloadStillBoardsOnePerPass) {
  WorldConfig cfg = ring_cfg(3, 11);
  cfg.ring.board_budget_bytes = 1;  // smaller than any payload below
  World world(cfg);
  world.simulator().at(sim::sec(1), [&] {
    for (std::uint8_t i = 0; i < 5; ++i)
      world.vs().gpsnd(2, payload(kBulkTag, i, 8));
  });
  world.run_until(sim::sec(4));

  const auto got = crafted_rcvs(world, 2, 1, sim::sec(1));
  ASSERT_EQ(got.size(), 5u) << "progress: every payload eventually boards";
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, i) << "FIFO preserved";
    // One payload per pass: no two deliveries share a token arrival.
    if (i > 0) {
      EXPECT_GT(got[i].at, got[i - 1].at) << "payload " << i;
    }
  }
}

TEST(FlowControl, BudgetBoundaryExactlyAtPayloadEdge) {
  // budget == one 8-byte payload: the first boards (0 < 8), the second
  // waits for the next pass (8 < 8 is false). budget == two payloads:
  // both board the same pass. The check is strictly before each board.
  for (const std::size_t budget : {std::size_t{8}, std::size_t{16}}) {
    WorldConfig cfg = ring_cfg(3, 12);
    cfg.ring.board_budget_bytes = budget;
    World world(cfg);
    world.simulator().at(sim::sec(1), [&] {
      world.vs().gpsnd(2, payload(kBulkTag, 0, 8));
      world.vs().gpsnd(2, payload(kBulkTag, 1, 8));
    });
    world.run_until(sim::sec(4));

    const auto got = crafted_rcvs(world, 2, 1, sim::sec(1));
    ASSERT_EQ(got.size(), 2u) << "budget " << budget;
    if (budget == 8) {
      EXPECT_GT(got[1].at, got[0].at) << "boundary splits the pass";
    } else {
      EXPECT_EQ(got[1].at, got[0].at) << "both fit one pass";
    }
  }
}

TEST(FlowControl, ValueFloorBoardsOneValuePerPass) {
  // Budget of one payload per pass. The exchange payload spends the first
  // pass's budget; the floor still boards the first value behind it, and
  // every later pass boards one value within the budget.
  WorldConfig cfg = ring_cfg(3, 14);
  cfg.ring.board_budget_bytes = 8;
  World world(cfg);
  world.simulator().at(sim::sec(1), [&] {
    world.vs().gpsnd(2, payload(wire::kPayloadSummary, 0, 8));
    for (std::uint8_t i = 0; i < 3; ++i)
      world.vs().gpsnd(2, payload(kBulkTag, static_cast<std::uint8_t>(100 + i), 8));
  });
  world.run_until(sim::sec(4));

  const auto got = crafted_rcvs(world, 2, 1, sim::sec(1));
  ASSERT_EQ(got.size(), 4u) << "everything eventually delivers";
  // Group deliveries by pass (same timestamp = same token arrival).
  std::map<sim::Time, std::vector<std::uint8_t>> passes;
  for (const auto& r : got) passes[r.at].push_back(r.id);
  const std::vector<std::vector<std::uint8_t>> expected{{0, 100}, {101}, {102}};
  std::vector<std::vector<std::uint8_t>> actual;
  for (const auto& [at, ids] : passes) actual.push_back(ids);
  EXPECT_EQ(actual, expected) << "exchange + one value, then one value per pass";
}

bool exchange_tagged(const util::Buffer& m) {
  return !m.empty() && (m[0] == wire::kPayloadSummary || m[0] == wire::kPayloadDigest ||
                        m[0] == wire::kPayloadDelta);
}

TEST(FlowControl, ExchangeNeverFollowsAValueInTheSameView) {
  // The fact the single boarding queue relies on, under a budget and a
  // rotating partition: in every view, a sender's state-exchange payloads
  // come before its first client value. VStoTO gpsnds them first (the
  // gpsnd half), and install_view clears the queue, so no value left over
  // from an earlier view boards ahead of the next view's exchange (the
  // gprcv half, read at every receiver).
  for (const auto mode : {vstoto::ExchangeMode::kFullSummary, vstoto::ExchangeMode::kDigestDelta})
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << "exchange " << static_cast<int>(mode) << " seed " << seed);
      WorldConfig cfg = ring_cfg(4, seed);
      cfg.exchange = mode;
      cfg.ring.board_budget_bytes = 64;
      World world(cfg);
      const int n = world.n();
      for (sim::Time t = sim::msec(100); t < sim::sec(7); t += sim::msec(40))
        for (ProcId p = 0; p < n; ++p) world.bcast_at(t, p, "v" + std::to_string(t / 1000));
      int cycle = 0;
      for (sim::Time t = sim::sec(1); t < sim::sec(7); t += sim::msec(1500)) {
        const ProcId cut = static_cast<ProcId>(cycle++ % n);
        std::set<ProcId> rest;
        for (ProcId p = 0; p < n; ++p)
          if (p != cut) rest.insert(p);
        world.partition_at(t, {{cut}, rest});
        world.heal_at(t + sim::msec(700));
      }
      world.run_until(sim::sec(10));

      const auto un = static_cast<std::size_t>(n);
      std::vector<bool> sent_value(un, false);       // [sender]
      std::vector<bool> rcvd_value(un * un, false);  // [dst * n + src]
      std::size_t views = 0, exchanges = 0, values = 0;
      for (const auto& te : world.recorder().events()) {
        if (const auto* e = trace::as<trace::NewViewEvent>(te)) {
          ++views;
          const auto dst = static_cast<std::size_t>(e->p);
          sent_value[dst] = false;
          std::fill_n(rcvd_value.begin() + static_cast<std::ptrdiff_t>(dst * un),
                      static_cast<std::ptrdiff_t>(un), false);
        } else if (const auto* e = trace::as<trace::GpsndEvent>(te)) {
          const auto p = static_cast<std::size_t>(e->p);
          if (exchange_tagged(e->m)) {
            ++exchanges;
            EXPECT_FALSE(sent_value[p]) << "p" << p << " gpsnd an exchange after a value";
          } else {
            ++values;
            sent_value[p] = true;
          }
        } else if (const auto* e = trace::as<trace::GprcvEvent>(te)) {
          const auto slot =
              static_cast<std::size_t>(e->dst) * un + static_cast<std::size_t>(e->src);
          if (exchange_tagged(e->m))
            EXPECT_FALSE(rcvd_value[slot])
                << "p" << e->dst << " gprcv an exchange from p" << e->src << " after its value";
          else
            rcvd_value[slot] = true;
        }
      }
      EXPECT_GT(views, 2 * un) << "the partition must churn views";
      EXPECT_GT(exchanges, 0u);
      EXPECT_GT(values, 0u);
    }
}

}  // namespace
}  // namespace vsg
