// The per-processor to::Client interface: attached clients observe the
// same delivery stream the legacy global set_delivery callback does, the
// two coexist (shim fires after the client), and the move-path through
// bcast -> Process is visible in the payload_copies / payload_moves
// counters.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/world.hpp"

namespace vsg {
namespace {

using Delivery = std::tuple<ProcId, ProcId, std::string>;  // dest, origin, value

harness::WorldConfig ring_cfg(int n, std::uint64_t seed) {
  harness::WorldConfig cfg;
  cfg.n = n;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.seed = seed;
  return cfg;
}

void drive(harness::World& world, int n) {
  for (int round = 0; round < 2; ++round)
    for (ProcId p = 0; p < n; ++p)
      world.bcast_at(sim::msec(50 + 40 * round), p,
                     "r" + std::to_string(round) + "p" + std::to_string(p));
  world.run_until(sim::sec(3));
}

TEST(ToClient, AttachedClientsSeeTheLegacyDeliveryStream) {
  // Same seed, two worlds: one observed via attach, one via set_delivery.
  std::vector<Delivery> via_clients;
  {
    harness::World world(ring_cfg(3, 42));
    std::vector<std::unique_ptr<to::CallbackClient>> clients;
    for (ProcId p = 0; p < 3; ++p) {
      clients.push_back(std::make_unique<to::CallbackClient>(
          [&via_clients, p](ProcId origin, const core::Value& a) {
            via_clients.emplace_back(p, origin, a);
          }));
      world.stack().attach(p, *clients.back());
    }
    drive(world, 3);
  }

  std::vector<Delivery> via_legacy;
  {
    harness::World world(ring_cfg(3, 42));
    world.stack().set_delivery([&](ProcId dest, ProcId origin, const core::Value& a) {
      via_legacy.emplace_back(dest, origin, a);
    });
    drive(world, 3);
  }

  ASSERT_FALSE(via_clients.empty());
  EXPECT_EQ(via_clients, via_legacy)
      << "the Client API must be an observation change, not a behaviour change";
}

TEST(ToClient, ShimFiresAfterAttachedClient) {
  harness::World world(ring_cfg(2, 7));
  std::vector<std::string> order;
  to::CallbackClient client(
      [&](ProcId, const core::Value& a) { order.push_back("client:" + a); });
  world.stack().attach(0, client);
  world.stack().set_delivery([&](ProcId dest, ProcId, const core::Value& a) {
    if (dest == 0) order.push_back("legacy:" + a);
  });
  world.bcast_at(sim::msec(50), 1, "m");
  world.run_until(sim::sec(2));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "client:m");
  EXPECT_EQ(order[1], "legacy:m");
}

TEST(ToClient, UnattachedProcessorsStaySilent) {
  harness::World world(ring_cfg(3, 11));
  int at_1 = 0;
  to::CallbackClient client([&](ProcId, const core::Value&) { ++at_1; });
  world.stack().attach(1, client);
  drive(world, 3);
  // Only processor 1's stream reaches the client: 6 values, once each.
  EXPECT_EQ(at_1, 6);
}

TEST(ToClient, ReattachReplacesTheClient) {
  harness::World world(ring_cfg(2, 13));
  int first = 0, second = 0;
  to::CallbackClient a([&](ProcId, const core::Value&) { ++first; });
  to::CallbackClient b([&](ProcId, const core::Value&) { ++second; });
  world.stack().attach(0, a);
  world.stack().attach(0, b);
  world.bcast_at(sim::msec(50), 0, "x");
  world.run_until(sim::sec(2));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(ToClient, HotPathMovesPayloadsInsteadOfCopying) {
  harness::World world(ring_cfg(3, 99));
  drive(world, 3);

  const auto& m = world.metrics();
  const auto* moves = m.find_counter("to.payload_moves");
  const auto* copies = m.find_counter("to.payload_copies");
  ASSERT_NE(moves, nullptr);
  ASSERT_NE(copies, nullptr);

  // 6 bcasts in a 3-member view. Moves: 2 at each origin (bcast -> delay ->
  // content) = 6*2 = 12, plus each remote receiver moving the value out of
  // the message its gprcv decoded (2 per bcast) = 12, so 24 in all; the
  // origin's self-delivery finds the label in content and moves nothing.
  // Deliberate copies: the BcastEvent trace (1 per bcast) and the BrcvEvent
  // trace + delivered_ accessor (2 per delivery, 18 deliveries) = 6 + 36 =
  // 42.
  EXPECT_EQ(moves->value(), 24u);
  EXPECT_EQ(copies->value(), 42u);
}

TEST(ToClient, LatencyHistogramMatchesDeliveries) {
  harness::World world(ring_cfg(3, 5));
  drive(world, 3);
  const auto* all = world.metrics().find_histogram("to.brcv_latency.all");
  ASSERT_NE(all, nullptr);
  EXPECT_EQ(all->count(), 18u) << "6 values delivered at 3 processors";
  EXPECT_GT(all->min(), 0) << "delivery cannot be instantaneous";
  // Per-processor series partition the total.
  std::uint64_t per = 0;
  for (ProcId p = 0; p < 3; ++p) {
    const auto* h =
        world.metrics().find_histogram("to.brcv_latency.p" + std::to_string(p));
    ASSERT_NE(h, nullptr);
    per += h->count();
  }
  EXPECT_EQ(per, all->count());
}

// A client may bcast at its own processor from inside a delivery: the value
// is queued and labelled once the delivery returns, so nothing is delivered
// twice, and the value the legacy callback then reads (a reference into
// the content the nested bcast grows) is still the delivered one.
TEST(ToClient, ClientMayBcastFromInsideItsDelivery) {
  harness::World world(ring_cfg(3, 17));
  std::vector<std::string> seen_by_client;
  to::CallbackClient client([&](ProcId, const core::Value& a) {
    seen_by_client.push_back(a);
    if (a.rfind("re:", 0) == 0) return;
    for (int k = 0; k < 3; ++k) world.stack().bcast(1, "re:" + a + ":" + std::to_string(k));
  });
  world.stack().attach(1, client);
  std::vector<std::vector<std::string>> got(3);
  world.stack().set_delivery([&](ProcId dest, ProcId, const core::Value& a) {
    got[static_cast<std::size_t>(dest)].push_back(a);
  });
  drive(world, 3);

  EXPECT_TRUE(world.check_to_safety().empty());
  EXPECT_EQ(got[1], seen_by_client);
  // 6 driven values, each answered with 3 replies, at every processor.
  for (const auto& seq : got) {
    EXPECT_EQ(seq, got[0]);
    EXPECT_EQ(seq.size(), 24u);
    EXPECT_EQ(std::set<std::string>(seq.begin(), seq.end()).size(), seq.size())
        << "a value was delivered twice";
  }
}

// The legacy shim keeps pre-Client code working without edits (the
// stack_end_to_end_test exercises this wholesale; this is the focused
// regression).
TEST(ToClient, LegacySetDeliveryAloneStillWorks) {
  harness::World world(ring_cfg(2, 3));
  std::vector<std::string> got;
  world.stack().set_delivery(
      [&](ProcId dest, ProcId, const core::Value& a) {
        if (dest == 1) got.push_back(a);
      });
  world.bcast_at(sim::msec(20), 0, "a");
  world.bcast_at(sim::msec(60), 0, "b");
  world.run_until(sim::sec(2));
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace vsg
