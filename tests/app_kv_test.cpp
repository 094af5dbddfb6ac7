// Sequentially consistent replicated KV store (footnote 3) over the full
// stack, validated by the independent SeqCstChecker.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "app/replicated_kv.hpp"
#include "app/seqcst_checker.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"

namespace vsg {
namespace {

using harness::Backend;
using harness::World;
using harness::WorldConfig;

WorldConfig cfg_for(Backend backend, int n, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.n = n;
  cfg.backend = backend;
  cfg.seed = seed;
  return cfg;
}

TEST(ReplicatedKV, WriteEncodingRoundTrip) {
  const auto enc = app::encode_write("key", "value");
  const auto dec = app::decode_write(enc);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->first, "key");
  EXPECT_EQ(dec->second, "value");
  EXPECT_FALSE(app::decode_write("not an encoded write").has_value());
}

class ReplicatedKVTest : public ::testing::TestWithParam<Backend> {};

TEST_P(ReplicatedKVTest, WritePropagatesToAllReplicas) {
  World world(cfg_for(GetParam(), 3, 3));
  app::ReplicatedKV kv(world.stack());
  world.simulator().at(sim::msec(10), [&] { kv.write(0, "x", "1"); });
  world.run_until(sim::sec(2));
  for (ProcId p = 0; p < 3; ++p)
    EXPECT_EQ(kv.read(p, "x"), std::optional<std::string>("1")) << "at replica " << p;
}

TEST_P(ReplicatedKVTest, ReadsBeforeApplyAreLocal) {
  World world(cfg_for(GetParam(), 3, 4));
  app::ReplicatedKV kv(world.stack());
  EXPECT_FALSE(kv.read(0, "x").has_value());
  kv.write(0, "x", "1");
  // The write is in flight: the local replica has not applied it yet.
  EXPECT_EQ(kv.writes_in_flight(0), 1u);
  world.run_until(sim::sec(2));
  EXPECT_EQ(kv.writes_in_flight(0), 0u);
  EXPECT_EQ(kv.read(0, "x"), std::optional<std::string>("1"));
}

TEST_P(ReplicatedKVTest, ConcurrentWritersConvergeToSameStore) {
  World world(cfg_for(GetParam(), 4, 5));
  app::ReplicatedKV kv(world.stack());
  for (int k = 0; k < 5; ++k) {
    world.simulator().at(sim::msec(10 + 7 * k), [&kv, k] {
      kv.write(0, "k" + std::to_string(k % 3), "a" + std::to_string(k));
      kv.write(2, "k" + std::to_string(k % 3), "c" + std::to_string(k));
    });
  }
  world.run_until(sim::sec(3));
  for (ProcId p = 1; p < 4; ++p) EXPECT_EQ(kv.store(p), kv.store(0));
  EXPECT_EQ(kv.applied_count(0), 10u);
}

TEST_P(ReplicatedKVTest, HistoryIsSequentiallyConsistent) {
  World world(cfg_for(GetParam(), 3, 6));
  app::ReplicatedKV kv(world.stack());
  app::SeqCstChecker checker(3);
  kv.on_apply([&](ProcId p, const app::AppliedWrite& w) { checker.on_apply(p, w); });

  // Random-ish workload with interleaved reads, observations fed live.
  util::Rng rng(99);
  for (int k = 0; k < 30; ++k) {
    const auto p = static_cast<ProcId>(rng.below(3));
    const auto key = "k" + std::to_string(rng.below(4));
    world.simulator().at(sim::msec(5 * k + 1), [&, p, key, k] {
      if (k % 3 == 0) {
        const auto result = kv.read(p, key);
        checker.on_read(p, key, result, kv.applied_count(p));
      } else {
        const auto value = "v" + std::to_string(k);
        checker.on_submit(p, key, value);
        kv.write(p, key, value);
      }
    });
  }
  world.run_until(sim::sec(3));
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  EXPECT_EQ(checker.common_order().size(), 20u) << "all writes ordered";
}

TEST_P(ReplicatedKVTest, PartitionMinorityReadsAreStaleButConsistent) {
  World world(cfg_for(GetParam(), 5, 7));
  app::ReplicatedKV kv(world.stack());
  world.partition_at(sim::msec(100), {{0, 1, 2}, {3, 4}});
  world.simulator().at(sim::sec(2), [&] { kv.write(0, "x", "maj"); });
  world.run_until(sim::sec(5));
  EXPECT_EQ(kv.read(0, "x"), std::optional<std::string>("maj"));
  EXPECT_FALSE(kv.read(3, "x").has_value()) << "minority never applied it";
  world.heal_at(sim::sec(5));
  world.run_until(sim::sec(12));
  EXPECT_EQ(kv.read(3, "x"), std::optional<std::string>("maj")) << "catches up after heal";
}

INSTANTIATE_TEST_SUITE_P(BothBackends, ReplicatedKVTest,
                         ::testing::Values(Backend::kSpec, Backend::kTokenRing),
                         [](const auto& info) {
                           return info.param == Backend::kSpec ? "SpecVS" : "TokenRing";
                         });

TEST_P(ReplicatedKVTest, AtomicReadSeesAllPriorWrites) {
  World world(cfg_for(GetParam(), 3, 8));
  app::ReplicatedKV kv(world.stack());
  std::optional<std::string> got;
  std::size_t got_applied = 0;
  world.simulator().at(sim::msec(10), [&] { kv.write(1, "x", "first"); });
  world.simulator().at(sim::msec(11), [&] { kv.write(1, "x", "second"); });
  // Atomic read issued immediately after the writes, from a different
  // processor: because it is ordered through TO *after* both writes (they
  // were submitted earlier by FIFO per sender and the read marker follows),
  // it must not return a stale value once it completes.
  world.simulator().at(sim::msec(500), [&] {
    kv.atomic_read(0, "x", [&](const std::optional<std::string>& v, std::size_t applied) {
      got = v;
      got_applied = applied;
    });
    EXPECT_EQ(kv.atomic_reads_in_flight(0), 1u);
  });
  world.run_until(sim::sec(3));
  EXPECT_EQ(kv.atomic_reads_in_flight(0), 0u);
  EXPECT_EQ(got, std::optional<std::string>("second"));
  EXPECT_EQ(got_applied, 2u);
}

TEST_P(ReplicatedKVTest, AtomicReadOnMissingKey) {
  World world(cfg_for(GetParam(), 2, 9));
  app::ReplicatedKV kv(world.stack());
  bool fired = false;
  world.simulator().at(sim::msec(10), [&] {
    kv.atomic_read(0, "nothing", [&](const std::optional<std::string>& v, std::size_t) {
      fired = true;
      EXPECT_FALSE(v.has_value());
    });
  });
  world.run_until(sim::sec(2));
  EXPECT_TRUE(fired);
}

TEST_P(ReplicatedKVTest, AtomicReadBlocksWithoutQuorum) {
  World world(cfg_for(GetParam(), 5, 10));
  app::ReplicatedKV kv(world.stack());
  world.partition_at(sim::msec(100), {{0, 1, 2}, {3, 4}});
  bool fired = false;
  world.simulator().at(sim::sec(1), [&] {
    kv.atomic_read(3, "x", [&](const std::optional<std::string>&, std::size_t) {
      fired = true;
    });
  });
  world.run_until(sim::sec(4));
  EXPECT_FALSE(fired) << "minority cannot complete an atomic read";
  EXPECT_EQ(kv.atomic_reads_in_flight(3), 1u);
  // After the heal it completes.
  world.heal_at(sim::sec(4));
  world.run_until(sim::sec(12));
  EXPECT_TRUE(fired);
  EXPECT_EQ(kv.atomic_reads_in_flight(3), 0u);
}

TEST_P(ReplicatedKVTest, CasContentionHasExactlyOneWinner) {
  // The mutual-exclusion classic: three processors race to claim a lock
  // with CAS(absent -> mine). Totally ordered broadcast makes exactly one
  // win, deterministically, at every replica.
  World world(cfg_for(GetParam(), 3, 14));
  app::ReplicatedKV kv(world.stack());
  int winners = 0, losers = 0;
  for (ProcId p = 0; p < 3; ++p)
    world.simulator().at(sim::msec(10), [&kv, &winners, &losers, p] {
      kv.cas(p, "lock", std::nullopt, "owner-" + std::to_string(p),
             [&winners, &losers](bool ok) { ok ? ++winners : ++losers; });
    });
  world.run_until(sim::sec(3));
  EXPECT_EQ(winners, 1);
  EXPECT_EQ(losers, 2);
  // All replicas agree on who won.
  const auto owner = kv.read(0, "lock");
  ASSERT_TRUE(owner.has_value());
  for (ProcId p = 1; p < 3; ++p) EXPECT_EQ(kv.read(p, "lock"), owner);
}

TEST_P(ReplicatedKVTest, CasObservesWritesOrderedBeforeIt) {
  World world(cfg_for(GetParam(), 2, 15));
  app::ReplicatedKV kv(world.stack());
  bool first_result = false, second_result = true;
  world.simulator().at(sim::msec(10), [&] {
    kv.write(0, "x", "1");
    // Same sender, FIFO: the CAS is ordered after the write and sees "1".
    kv.cas(0, "x", std::optional<std::string>("1"), "2",
           [&](bool ok) { first_result = ok; });
    // This one expects the pre-write value and must fail.
    kv.cas(0, "x", std::optional<std::string>("1"), "3",
           [&](bool ok) { second_result = ok; });
  });
  world.run_until(sim::sec(2));
  EXPECT_TRUE(first_result);
  EXPECT_FALSE(second_result) << "x is already 2 when the second CAS executes";
  EXPECT_EQ(kv.read(1, "x"), std::optional<std::string>("2"));
}

TEST(ReplicatedKV, ReadMarkerEncoding) {
  const auto enc = app::encode_read_marker("k");
  const auto dec = app::decode_read_marker(enc);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, "k");
  EXPECT_FALSE(app::decode_read_marker(app::encode_write("k", "v")).has_value());
  EXPECT_FALSE(app::decode_write(app::encode_read_marker("k")).has_value());
}

TEST(ReplicatedKV, ParserReadsEveryOpKindInPlace) {
  const core::Value write = app::encode_write("key", "value");
  const auto w = app::parse_op(write);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->kind, app::OpView::Kind::kWrite);
  EXPECT_EQ(w->key, "key");
  EXPECT_EQ(w->value, "value");
  EXPECT_EQ(w->key.data(), write.data() + 5) << "the key is a view into the value";

  // The views borrow the encoded bytes, so those must outlive them.
  const core::Value marker = app::encode_read_marker("k");
  const auto r = app::parse_op(marker);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, app::OpView::Kind::kReadMarker);
  EXPECT_EQ(r->key, "k");

  const core::Value barrier(1, '\x04');
  const auto b = app::parse_op(barrier);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->kind, app::OpView::Kind::kBarrier);

  // CAS: op 3, str key, bool has-expected, [str expected], str desired.
  const std::string cas_absent("\x03\x01\0\0\0k\0\x01\0\0\0d", 12);
  const auto c = app::parse_op(cas_absent);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->kind, app::OpView::Kind::kCas);
  EXPECT_EQ(c->key, "k");
  EXPECT_FALSE(c->expected.has_value());
  EXPECT_EQ(c->value, "d");
  const std::string cas_expected("\x03\x01\0\0\0k\x01\x01\0\0\0e\x01\0\0\0d", 17);
  const auto e = app::parse_op(cas_expected);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->expected, std::optional<std::string_view>("e"));
  EXPECT_EQ(e->value, "d");
}

TEST(ReplicatedKV, ParserRejectsMalformedBytes) {
  const std::string write = app::encode_write("key", "value");  // 1 + 4+3 + 4+5 bytes
  const std::string cas("\x03\x01\0\0\0k\x01\x01\0\0\0e\x01\0\0\0d", 17);
  struct Case {
    const char* name;
    std::string bytes;
  };
  const Case cases[] = {
      {"empty input", std::string()},
      {"wrong op byte", std::string(1, '\x09') + write.substr(1)},
      {"op byte zero", std::string(1, '\0')},
      {"truncated length", write.substr(0, 3)},
      {"length past the end", write.substr(0, write.size() - 1)},
      {"key length past the end", std::string("\x01\xff\0\0\0key", 8)},
      {"trailing bytes", write + "x"},
      {"barrier with a trailing byte", std::string("\x04\x04", 2)},
      {"read marker with no key", std::string(1, '\x02')},
      {"truncated CAS: no desired value", cas.substr(0, 12)},
      {"truncated CAS: no expected flag", cas.substr(0, 6)},
      {"truncated CAS: expected cut short", cas.substr(0, 10)},
  };
  for (const auto& c : cases) EXPECT_FALSE(app::parse_op(c.bytes).has_value()) << c.name;
}

TEST(ReplicatedKV, RejectsProcessorOutsideTheGroup) {
  World world(cfg_for(Backend::kSpec, 4, 16));
  app::ReplicatedKV kv(world.stack());
  for (const ProcId bad : {-1, 4, 7}) {
    EXPECT_THROW(kv.write(bad, "x", "1"), std::invalid_argument) << bad;
    EXPECT_THROW(kv.read(bad, "x"), std::invalid_argument) << bad;
    EXPECT_THROW(kv.atomic_read(bad, "x", [](const std::optional<std::string>&, std::size_t) {}),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(kv.cas(bad, "x", std::nullopt, "1", [](bool) {}), std::invalid_argument) << bad;
    EXPECT_THROW(kv.barrier(bad, [](std::size_t) {}), std::invalid_argument) << bad;
    EXPECT_THROW(kv.store(bad), std::invalid_argument) << bad;
    EXPECT_THROW(kv.writes_in_flight(bad), std::invalid_argument) << bad;
    EXPECT_THROW(kv.applied_count(bad), std::invalid_argument) << bad;
  }
  // A refused call submitted nothing.
  world.run_until(sim::sec(2));
  for (ProcId p = 0; p < 4; ++p) {
    EXPECT_EQ(kv.applied_count(p), 0u);
    EXPECT_TRUE(kv.store(p).empty());
  }
}

TEST(SeqCstChecker, DetectsDivergentApplyOrders) {
  app::SeqCstChecker checker(2);
  checker.on_submit(0, "x", "1");
  checker.on_submit(1, "x", "2");
  checker.on_apply(0, {0, "x", "1"});
  checker.on_apply(0, {1, "x", "2"});
  checker.on_apply(1, {1, "x", "2"});  // replica 1 applies in the other order
  EXPECT_FALSE(checker.ok());
}

TEST(SeqCstChecker, DetectsPhantomWrites) {
  app::SeqCstChecker checker(2);
  checker.on_apply(0, {0, "x", "never-submitted"});
  EXPECT_FALSE(checker.ok());
}

TEST(SeqCstChecker, DetectsFifoViolations) {
  app::SeqCstChecker checker(2);
  checker.on_submit(0, "x", "first");
  checker.on_submit(0, "x", "second");
  checker.on_apply(1, {0, "x", "second"});
  EXPECT_FALSE(checker.ok());
}

TEST(SeqCstChecker, DetectsWrongReadValues) {
  app::SeqCstChecker checker(2);
  checker.on_submit(0, "x", "1");
  checker.on_apply(0, {0, "x", "1"});
  checker.on_read(0, "x", std::optional<std::string>("999"), 1);
  EXPECT_FALSE(checker.ok());
  app::SeqCstChecker good(2);
  good.on_submit(0, "x", "1");
  good.on_apply(0, {0, "x", "1"});
  good.on_read(0, "x", std::optional<std::string>("1"), 1);
  good.on_read(0, "x", std::nullopt, 0);  // before applying anything
  EXPECT_TRUE(good.ok());
}

}  // namespace
}  // namespace vsg
