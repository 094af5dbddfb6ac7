// Cross-shard consistency demo (docs/SHARDING.md): the sharded KV keeps
// footnote-3 sequential consistency *per shard*, and this program shows —
// with the independent CrossShardChecker as the judge — exactly where the
// combined history breaks and how per-shard barriers repair it.
//
// Two shards over one substrate, deliberately asymmetric: shard 0's token
// ring launches its token every 500ms, shard 1's every 10ms. Phase 1 runs
// the classic anomaly with no fences: processor 0 writes x (slow shard)
// then y (fast shard); processor 1 reads y — already applied — then x —
// still missing. No serialization can order those four operations, and the
// checker proves it by finding the cycle
//   W(x) -po-> W(y) -rf-> R(y) -po-> R(x) -fr-> W(x).
// Phase 2 reruns the same workload with the fence discipline: the writer
// barriers the slow shard before touching the fast one, the reader barriers
// the slow shard before trusting the cross-shard implication. The checker
// comes back clean and the reader observes x=1.
//
// Exit status 0 iff phase 1 FINDS the violation and phase 2 is clean.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "app/seqcst_checker.hpp"
#include "app/sharded_kv.hpp"
#include "harness/world.hpp"

using namespace vsg;

namespace {

// First key of the family "<base>0", "<base>1", ... that the router places
// on `shard` (clients and this demo compute the same placement).
std::string key_on(const app::ShardRouter& router, int shard, char base) {
  for (int i = 0;; ++i) {
    const std::string key = std::string(1, base) + std::to_string(i);
    if (router.shard_of(key) == shard) return key;
  }
}

struct PhaseResult {
  std::vector<std::string> violations;
  std::optional<std::string> x_read;  // the reader's final view of x
};

PhaseResult run_phase(bool with_barriers) {
  harness::WorldConfig cfg;
  cfg.n = 3;
  cfg.shards = 2;
  membership::TokenRingConfig slow;
  slow.pi = sim::msec(500);  // shard 0: the token is rare — ordering is slow
  membership::TokenRingConfig fast;
  fast.pi = sim::msec(10);  // shard 1: ordering is near-instant
  cfg.shard_rings = {slow, fast};
  cfg.seed = 7;
  harness::World world(cfg);

  std::vector<to::Service*> services{&world.stack(0), &world.stack(1)};
  app::ShardedKV kv(services);
  app::CrossShardChecker checker(2);

  // Each shard's common write order, as replica 0 applies it (the other
  // replicas must agree; that is checked at quiescence below).
  for (int k = 0; k < kv.shards(); ++k)
    kv.shard(k).on_apply([&checker, k](ProcId replica, const app::AppliedWrite& w) {
      if (replica == 0) checker.on_order(k, w);
    });

  const std::string kx = key_on(kv.router(), 0, 'x');  // slow shard
  const std::string ky = key_on(kv.router(), 1, 'y');  // fast shard

  auto read = [&](ProcId p, const std::string& key) {
    const int shard = kv.shard_of(key);
    const auto result = kv.read(p, key);
    checker.on_read(p, shard, key, result, kv.shard(shard).applied_count(p));
    return result;
  };

  PhaseResult out;
  if (!with_barriers) {
    // Writer: x then y, back to back — program order crosses the shards.
    world.simulator().at(sim::sec(2), [&] {
      checker.on_write(0, 0, kx, "1");
      kv.write(0, kx, "1");
      checker.on_write(0, 1, ky, "1");
      kv.write(0, ky, "1");
    });
    // Reader, 200ms later: the fast shard has applied y long ago, the slow
    // shard has not even seen a token carrying x yet.
    world.simulator().at(sim::msec(2200), [&] {
      read(1, ky);
      out.x_read = read(1, kx);
    });
  } else {
    // Writer-side fence: y is only submitted once the slow shard has
    // applied x at the writer.
    world.simulator().at(sim::sec(2), [&] {
      checker.on_write(0, 0, kx, "1");
      kv.write(0, kx, "1");
      kv.barrier_for(kx, 0, [&](std::size_t) {
        checker.on_write(0, 1, ky, "1");
        kv.write(0, ky, "1");
      });
    });
    // Reader-side fence: after observing the fast-shard write, fence the
    // slow shard before reading from it.
    world.simulator().at(sim::sec(8), [&] {
      read(1, ky);
      kv.barrier_for(kx, 1, [&](std::size_t) { out.x_read = read(1, kx); });
    });
  }
  world.run_until(sim::sec(20));

  // Every replica of a shard must have applied its whole order — the
  // per-shard guarantee the cross-shard checker builds on.
  for (int k = 0; k < kv.shards(); ++k)
    for (ProcId p = 1; p < 3; ++p)
      if (kv.shard(k).applied_count(p) != kv.shard(k).applied_count(0)) {
        out.violations.push_back("shard " + std::to_string(k) +
                                 " replicas diverge at quiescence");
        return out;
      }
  out.violations = checker.check();
  return out;
}

}  // namespace

int main() {
  std::printf("-- phase 1: no fences (expecting a cross-shard violation) --\n");
  const PhaseResult broken = run_phase(/*with_barriers=*/false);
  for (const auto& v : broken.violations) std::printf("  %s\n", v.c_str());
  const bool found = !broken.violations.empty();
  std::printf("checker verdict: %s\n\n",
              found ? "VIOLATION FOUND (as constructed)" : "clean — demo failed");

  std::printf("-- phase 2: per-shard barriers (expecting a clean history) --\n");
  const PhaseResult fenced = run_phase(/*with_barriers=*/true);
  for (const auto& v : fenced.violations) std::printf("  %s\n", v.c_str());
  const bool clean = fenced.violations.empty() && fenced.x_read == "1";
  std::printf("checker verdict: %s (reader saw x=%s)\n", clean ? "clean" : "VIOLATIONS",
              fenced.x_read ? fenced.x_read->c_str() : "missing");

  return found && clean ? 0 : 1;
}
