// ShardedKV (key-partitioned replicated memory over K TO shards) and the
// CrossShardChecker that judges its combined histories. The KV tests run a
// real two-shard World end to end; the checker tests hand-build small
// histories so each violation class is exercised in isolation.

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/seqcst_checker.hpp"
#include "app/sharded_kv.hpp"
#include "harness/world.hpp"

namespace vsg::app {
namespace {

harness::World make_world(int shards, std::uint64_t seed = 11) {
  harness::WorldConfig cfg;
  cfg.n = 3;
  cfg.shards = shards;
  cfg.seed = seed;
  return harness::World(std::move(cfg));
}

std::vector<to::Service*> services_of(harness::World& world) {
  std::vector<to::Service*> services;
  for (int k = 0; k < world.shards(); ++k) services.push_back(&world.stack(k));
  return services;
}

TEST(ShardedKV, RoutingMatchesTheRouterAndIsStable) {
  harness::World world = make_world(2);
  auto services = services_of(world);
  ShardedKV kv(services);
  ASSERT_EQ(kv.shards(), 2);
  EXPECT_EQ(kv.n(), 3);
  ShardRouter reference(2, 3);
  for (int i = 0; i < 64; ++i) {
    const std::string key = "key" + std::to_string(i);
    const int shard = kv.shard_of(key);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 2);
    EXPECT_EQ(shard, reference.shard_of(key)) << key;
    EXPECT_EQ(shard, kv.shard_of(key)) << "placement must be stable: " << key;
  }
}

TEST(ShardedKV, WritesLandOnlyOnTheOwningShard) {
  harness::World world = make_world(2);
  auto services = services_of(world);
  ShardedKV kv(services);
  const int keys = 16;
  for (int k = 0; k < 2; ++k)
    kv.shard(k).on_apply([&kv, k](ProcId, const AppliedWrite& w) {
      EXPECT_EQ(kv.shard_of(w.key), k) << w.key << " applied on the wrong shard";
    });
  world.simulator().at(sim::sec(1), [&] {
    for (int i = 0; i < keys; ++i)
      kv.write(static_cast<ProcId>(i % 3), "key" + std::to_string(i), std::to_string(i));
  });
  world.run_until(sim::sec(15));

  std::size_t total = 0;
  for (int k = 0; k < 2; ++k) {
    for (ProcId p = 0; p < 3; ++p)
      EXPECT_EQ(kv.shard(k).applied_count(p), kv.shard(k).applied_count(0));
    total += kv.shard(k).applied_count(0);
  }
  EXPECT_EQ(total, static_cast<std::size_t>(keys)) << "every write applied exactly once";
  EXPECT_EQ(kv.total_applied(0), static_cast<std::size_t>(keys));
  EXPECT_EQ(kv.writes_in_flight(0), 0u);
  for (int i = 0; i < keys; ++i)
    EXPECT_EQ(kv.read(2, "key" + std::to_string(i)), std::to_string(i));
  EXPECT_EQ(kv.read(0, "nope"), std::nullopt);
}

TEST(ShardedKV, BarrierFiresAfterThePrecedingWriteApplies) {
  harness::World world = make_world(2);
  auto services = services_of(world);
  ShardedKV kv(services);
  // A key per shard so barrier_for exercises the routing path too.
  std::string k0, k1;
  for (int i = 0; k0.empty() || k1.empty(); ++i) {
    const std::string key = "b" + std::to_string(i);
    (kv.shard_of(key) == 0 ? k0 : k1) = key;
  }

  bool fired0 = false, fired1 = false;
  world.simulator().at(sim::sec(1), [&] {
    kv.write(0, k0, "v0");
    kv.write(0, k1, "v1");
    EXPECT_EQ(kv.writes_in_flight(0), 2u);
    // Writer-side fence: the marker follows the write in p0's per-sender
    // FIFO, so the callback must observe the write applied.
    kv.barrier_for(k0, 0, [&](std::size_t applied) {
      fired0 = true;
      EXPECT_GE(applied, 1u);
      EXPECT_EQ(kv.read(0, k0), "v0") << "barrier fired before the write applied";
    });
  });
  // Reader-side fence at another processor, issued once the writes have
  // long since been ordered.
  world.simulator().at(sim::sec(10), [&] {
    kv.barrier_for(k1, 1, [&](std::size_t) {
      fired1 = true;
      EXPECT_EQ(kv.read(1, k1), "v1");
    });
  });
  world.run_until(sim::sec(20));
  EXPECT_TRUE(fired0);
  EXPECT_TRUE(fired1);
  EXPECT_EQ(kv.writes_in_flight(0), 0u);
}

TEST(ShardedKV, SingleShardDegeneratesToPlainReplicatedKV) {
  harness::World world = make_world(1);
  auto services = services_of(world);
  ShardedKV kv(services);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(kv.shard_of("key" + std::to_string(i)), 0);
  world.simulator().at(sim::sec(1), [&] { kv.write(1, "a", "1"); });
  world.run_until(sim::sec(10));
  EXPECT_EQ(kv.total_applied(2), 1u);
  EXPECT_EQ(kv.read(2, "a"), "1");
}

TEST(ShardedKV, RejectsShardOutsideTheRange) {
  harness::World world = make_world(2);
  auto services = services_of(world);
  ShardedKV kv(services);
  for (const int bad : {-1, 2, 7}) {
    EXPECT_THROW(kv.barrier(bad, 0, [](std::size_t) {}), std::invalid_argument) << bad;
    EXPECT_THROW(kv.shard(bad), std::invalid_argument) << bad;
  }
  // A processor outside the group is refused on the routed paths too.
  EXPECT_THROW(kv.write(3, "a", "1"), std::invalid_argument);
  EXPECT_THROW(kv.read(-1, "a"), std::invalid_argument);
  EXPECT_THROW(kv.barrier(0, 3, [](std::size_t) {}), std::invalid_argument);
  EXPECT_THROW(kv.total_applied(3), std::invalid_argument);
  EXPECT_THROW(kv.writes_in_flight(3), std::invalid_argument);
  EXPECT_EQ(kv.writes_in_flight(0), 0u) << "a refused write was not counted";
}

// --- CrossShardChecker ---------------------------------------------------

TEST(CrossShardChecker, CleanCrossShardHistoryPasses) {
  CrossShardChecker checker(2);
  // p0 writes x@0 then y@1; p1 reads y then x, both present — the witness
  // serialization W(x) W(y) R(y) R(x) satisfies every edge.
  checker.on_write(0, 0, "x", "1");
  checker.on_write(0, 1, "y", "1");
  checker.on_read(1, 1, "y", "1", 1);
  checker.on_read(1, 0, "x", "1", 1);
  checker.on_order(0, AppliedWrite{0, "x", "1"});
  checker.on_order(1, AppliedWrite{0, "y", "1"});
  EXPECT_TRUE(checker.ok()) << checker.check().front();
}

TEST(CrossShardChecker, ClassicTwoShardAnomalyIsACycle) {
  CrossShardChecker checker(2);
  // The motivating anomaly: p1 observes y=1 but then misses x — no single
  // serialization orders W(x) -po-> W(y) -rf-> R(y) -po-> R(x) -fr-> W(x).
  checker.on_write(0, 0, "x", "1");
  checker.on_write(0, 1, "y", "1");
  checker.on_read(1, 1, "y", "1", 1);
  checker.on_read(1, 0, "x", std::nullopt, 0);
  checker.on_order(0, AppliedWrite{0, "x", "1"});
  checker.on_order(1, AppliedWrite{0, "y", "1"});
  const auto& violations = checker.check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations.front().find("ordering cycle"), std::string::npos)
      << violations.front();
  EXPECT_NE(violations.front().find("R(x)"), std::string::npos) << violations.front();
  // check() is memoized — a second call returns the identical verdict.
  EXPECT_EQ(&checker.check(), &violations);
}

TEST(CrossShardChecker, SubmittedButNeverOrderedWriteIsFlagged) {
  CrossShardChecker checker(2);
  checker.on_write(0, 0, "x", "1");
  const auto& violations = checker.check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations.front().find("never ordered"), std::string::npos);
}

TEST(CrossShardChecker, OrderViolatingSubmissionFifoIsFlagged) {
  CrossShardChecker checker(1);
  checker.on_write(0, 0, "a", "1");
  checker.on_write(0, 0, "b", "2");
  // The shard claims it ordered p0's writes b-then-a: per-sender FIFO broken.
  checker.on_order(0, AppliedWrite{0, "b", "2"});
  const auto& violations = checker.check();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("does not match the submission history"),
            std::string::npos)
      << violations.front();
}

TEST(CrossShardChecker, ReadDisagreeingWithItsShardPrefixIsFlagged) {
  CrossShardChecker checker(1);
  checker.on_write(0, 0, "x", "1");
  checker.on_read(1, 0, "x", "2", 1);  // prefix of length 1 says x='1'
  checker.on_order(0, AppliedWrite{0, "x", "1"});
  const auto& violations = checker.check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations.front().find("disagrees with its shard prefix"), std::string::npos);
}

}  // namespace
}  // namespace vsg::app
