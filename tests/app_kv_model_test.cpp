// Differential check of ReplicatedKV against a model. The model is the
// plainest state machine over TO: a std::map that replays one replica's
// delivered sequence (vstoto::Process::delivered), decoded with its own
// copying decoder and evaluating each CAS on the map. After random writes,
// CAS and barriers across a partition and a heal, every replica's store,
// applied_count, apply tap stream and CAS outcomes must equal the model's.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "app/replicated_kv.hpp"
#include "harness/world.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace vsg {
namespace {

using harness::Backend;

// The model's own decoder: a copying util::Decoder pass, independent of
// app::parse_op. Op bytes: 1 write, 3 CAS; everything else applies nothing.
struct ModelReplica {
  std::map<std::string, std::string> store;
  std::vector<app::AppliedWrite> applied;
  std::vector<bool> own_cas;  // outcomes of this replica's own CAS, in order

  void replay(ProcId self, ProcId origin, const core::Value& v) {
    const util::Bytes bytes(v.begin(), v.end());
    util::Decoder d(bytes);
    const std::uint8_t op = d.u8();
    if (op == 1) {
      std::string key = d.str();
      std::string value = d.str();
      if (d.complete()) apply(origin, std::move(key), std::move(value));
    } else if (op == 3) {
      std::string key = d.str();
      std::optional<std::string> expected;
      if (d.boolean()) expected = d.str();
      std::string desired = d.str();
      if (!d.complete()) return;
      const auto it = store.find(key);
      const std::optional<std::string> current =
          it == store.end() ? std::nullopt : std::optional<std::string>(it->second);
      const bool succeeded = current == expected;
      if (succeeded) apply(origin, std::move(key), std::move(desired));
      if (origin == self) own_cas.push_back(succeeded);
    }
  }

  void apply(ProcId origin, std::string key, std::string value) {
    store[key] = value;
    applied.push_back(app::AppliedWrite{origin, std::move(key), std::move(value)});
  }
};

class ReplicatedKVModelTest
    : public ::testing::TestWithParam<std::tuple<Backend, std::uint64_t>> {};

TEST_P(ReplicatedKVModelTest, EveryReplicaEqualsAMapReplayOfItsDeliveries) {
  const auto [backend, seed] = GetParam();
  constexpr int n = 5;
  harness::WorldConfig cfg;
  cfg.n = n;
  cfg.backend = backend;
  cfg.seed = seed;
  harness::World world(cfg);
  app::ReplicatedKV kv(world.stack());

  std::vector<std::vector<app::AppliedWrite>> tapped(n);
  kv.on_apply([&](ProcId p, const app::AppliedWrite& w) {
    tapped[static_cast<std::size_t>(p)].push_back(w);
    EXPECT_EQ(kv.applied_count(p), tapped[static_cast<std::size_t>(p)].size())
        << "the tap sees the apply already counted";
    EXPECT_EQ(kv.read(p, w.key), std::optional<std::string>(w.value))
        << "the tap sees the apply already in the store";
  });

  std::vector<std::vector<bool>> cas_results(n);
  std::size_t barriers_fired = 0, barriers_issued = 0;
  util::Rng rng(seed * 7919 + 1);
  for (int i = 0; i < 120; ++i) {
    const auto p = static_cast<ProcId>(rng.below(n));
    const std::string key = "k" + std::to_string(rng.below(6));
    const sim::Time at = sim::msec(10 + 50 * i);
    switch (rng.below(4)) {
      case 0:
      case 1:
        world.simulator().at(at, [&kv, p, key, i] { kv.write(p, key, "v" + std::to_string(i)); });
        break;
      case 2: {
        // Expect absent, or one of the recent write values (some succeed).
        std::optional<std::string> expected;
        if (i > 0 && rng.below(3) != 0) {
          const std::uint64_t back = rng.below(static_cast<std::uint64_t>(std::min(i, 4)));
          expected = "v" + std::to_string(static_cast<std::uint64_t>(i) - 1 - back);
        }
        world.simulator().at(at, [&kv, &cas_results, p, key, expected, i] {
          kv.cas(p, key, expected, "c" + std::to_string(i), [&cas_results, p](bool ok) {
            cas_results[static_cast<std::size_t>(p)].push_back(ok);
          });
        });
        break;
      }
      default:
        ++barriers_issued;
        world.simulator().at(at, [&kv, &barriers_fired, p] {
          kv.barrier(p, [&kv, &barriers_fired, p](std::size_t applied) {
            EXPECT_EQ(applied, kv.applied_count(p));
            ++barriers_fired;
          });
        });
    }
  }
  world.partition_at(sim::sec(1), {{0, 1, 2}, {3, 4}});
  world.heal_at(sim::sec(4));
  world.run_until(sim::sec(15));

  EXPECT_EQ(barriers_fired, barriers_issued);
  std::size_t total_applied = 0;
  for (ProcId p = 0; p < n; ++p) {
    ModelReplica model;
    for (const auto& [origin, value] : world.stack().process(p).delivered())
      model.replay(p, origin, value);
    const auto i = static_cast<std::size_t>(p);

    const std::map<std::string, std::string> store(kv.store(p).begin(), kv.store(p).end());
    EXPECT_EQ(store, model.store) << "replica " << p;
    EXPECT_EQ(kv.applied_count(p), model.applied.size()) << "replica " << p;
    ASSERT_EQ(tapped[i].size(), model.applied.size()) << "replica " << p;
    for (std::size_t k = 0; k < model.applied.size(); ++k) {
      EXPECT_EQ(tapped[i][k].origin, model.applied[k].origin) << "replica " << p << " #" << k;
      EXPECT_EQ(tapped[i][k].key, model.applied[k].key) << "replica " << p << " #" << k;
      EXPECT_EQ(tapped[i][k].value, model.applied[k].value) << "replica " << p << " #" << k;
    }
    EXPECT_EQ(cas_results[i], model.own_cas) << "replica " << p;
    total_applied += model.applied.size();
  }
  EXPECT_GT(total_applied, 0u) << "the workload applied nothing; the test checks nothing";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ReplicatedKVModelTest,
    ::testing::Combine(::testing::Values(Backend::kSpec, Backend::kTokenRing),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == Backend::kSpec ? "SpecVS" : "TokenRing") +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace vsg
