// Sequentially consistent replicated key-value store (the application of
// the paper's footnote 3): reads are local, writes go through totally
// ordered broadcast, every replica applies the same write sequence.
//
//   $ ./replicated_kv_demo
//
// The demo runs a bank-account workload with concurrent writers on
// different processors, a partition in the middle, and shows that after
// healing every replica agrees — with the independent sequential-
// consistency checker auditing the whole history.

#include <cstdio>
#include <map>

#include "app/replicated_kv.hpp"
#include "app/seqcst_checker.hpp"
#include "harness/world.hpp"

int main() {
  using namespace vsg;

  harness::WorldConfig cfg;
  cfg.n = 3;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.seed = 99;
  harness::World world(cfg);
  app::ReplicatedKV kv(world.stack());  // attaches one to::Client per replica
  app::SeqCstChecker checker(3);
  // The checker sees every apply as it happens, through the KV's tap.
  kv.on_apply([&](ProcId p, const app::AppliedWrite& w) { checker.on_apply(p, w); });

  // The KV owns the per-processor clients; the legacy global callback is
  // still free, so observers can tap the same delivery stream.
  std::size_t to_deliveries = 0;
  world.stack().set_delivery(
      [&](ProcId, ProcId, const core::Value&) { ++to_deliveries; });

  auto write = [&](sim::Time t, ProcId p, const std::string& key, const std::string& value) {
    world.simulator().at(t, [&, t, p, key, value] {
      std::printf("  t=%-7lld processor %d writes %s=%s\n",
                  static_cast<long long>(t), p, key.c_str(), value.c_str());
      checker.on_submit(p, key, value);
      kv.write(p, key, value);
    });
  };
  auto read = [&](sim::Time t, ProcId p, const std::string& key) {
    world.simulator().at(t, [&, t, p, key] {
      const auto v = kv.read(p, key);
      checker.on_read(p, key, v, kv.applied_count(p));
      std::printf("  t=%-7lld processor %d reads  %s -> %s\n",
                  static_cast<long long>(t), p, key.c_str(),
                  v ? v->c_str() : "(missing)");
    });
  };

  std::printf("== concurrent writers on an account ledger\n");
  write(sim::msec(10), 0, "alice", "100");
  write(sim::msec(10), 1, "bob", "50");
  write(sim::msec(200), 2, "alice", "75");
  read(sim::msec(500), 0, "alice");
  read(sim::msec(500), 2, "bob");

  std::printf("== t=1s: partition {0,1} | {2}; the majority keeps going\n");
  world.partition_at(sim::sec(1), {{0, 1}, {2}});
  write(sim::msec(1500), 0, "carol", "10");
  read(sim::msec(2500), 2, "carol");  // stale but consistent: not applied yet

  std::printf("== t=3s: heal; replica 2 catches up\n");
  world.heal_at(sim::sec(3));
  read(sim::sec(6), 2, "carol");

  world.run_until(sim::sec(8));

  std::printf("\nfinal stores:\n");
  for (ProcId p = 0; p < 3; ++p) {
    std::printf("  replica %d:", p);
    const std::map<std::string, std::string> sorted(kv.store(p).begin(), kv.store(p).end());
    for (const auto& [k, v] : sorted) std::printf(" %s=%s", k.c_str(), v.c_str());
    std::printf("\n");
  }
  std::printf("\nsequential consistency audit: %s\n",
              checker.ok() ? "OK" : checker.violations().front().c_str());
  std::printf("common write order has %zu writes\n", checker.common_order().size());
  std::printf("%zu TO deliveries; %llu packets on the wire (world.metrics())\n",
              to_deliveries,
              static_cast<unsigned long long>(
                  world.metrics().find_counter("net.packets_sent")->value()));
  return checker.ok() ? 0 : 1;
}
