// Inside the Section 8 implementation: watch the Cristian-Schmuck
// membership protocol and the token ring at work — view proposals on
// partition, token circulation statistics, safe notifications, and the
// measured stabilization time compared against the paper's bound
//   b = 9*delta + max{pi + (n+3)*delta, mu}.
//
//   $ ./token_ring_demo

#include <cstdio>

#include "harness/stats.hpp"
#include "harness/world.hpp"

int main() {
  using namespace vsg;

  harness::WorldConfig cfg;
  cfg.n = 4;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.seed = 5;
  harness::World world(cfg);

  std::printf("token ring parameters: delta=%s pi=%s mu=%s\n",
              harness::fmt_time(cfg.ring.delta).c_str(),
              harness::fmt_time(cfg.ring.pi).c_str(),
              harness::fmt_time(cfg.ring.mu).c_str());

  world.recorder().subscribe([&](const trace::TimedEvent& te) {
    if (const auto* v = trace::as<trace::NewViewEvent>(te))
      std::printf("  t=%-9s newview(%s) at processor %d\n",
                  harness::fmt_time(te.at).c_str(), core::to_string(v->view()).c_str(), v->p);
  });

  // Steady VS-level traffic from processor 1.
  for (int k = 0; k < 60; ++k)
    world.simulator().at(sim::msec(100 * k + 50), [&world, k] {
      world.vs().gpsnd(1, util::Bytes{static_cast<std::uint8_t>(k)});
    });

  std::printf("== t=1.5s: partition {0,1} | {2,3}\n");
  world.partition_at(sim::msec(1500), {{0, 1}, {2, 3}});
  std::printf("== t=3.5s: heal\n");
  world.heal_at(sim::msec(3500));
  world.run_until(sim::sec(7));

  // Every layer counts into the World's registry.
  const auto count = [&world](const char* name) {
    const obs::Counter* c = world.metrics().find_counter(name);
    return static_cast<unsigned long long>(c == nullptr ? 0 : c->value());
  };
  std::printf("\nprotocol statistics:\n");
  std::printf("  proposals initiated : %llu\n", count("ring.formation_rounds"));
  std::printf("  views installed     : %llu\n", count("ring.views_installed"));
  std::printf("  token passes        : %llu\n", count("ring.token_rotations"));
  std::printf("  entries delivered   : %llu\n", count("ring.entries_delivered"));
  std::printf("  safes emitted       : %llu\n", count("ring.safes_emitted"));
  std::printf("  packets sent=%llu delivered=%llu dropped=%llu, bytes=%llu\n",
              count("net.packets_sent"), count("net.packets_delivered"),
              count("net.packets_dropped"), count("net.bytes_sent"));

  // Measured stabilization after the heal vs the paper's b.
  const int n = 4;
  const sim::Time b =
      9 * cfg.ring.delta + std::max(cfg.ring.pi + (n + 3) * cfg.ring.delta, cfg.ring.mu);
  const sim::Time d = 3 * (cfg.ring.pi + n * cfg.ring.delta);
  const auto report = world.vs_report({0, 1, 2, 3}, d, sim::sec(6));
  if (report.stability.premise_holds && report.required_lprime.has_value()) {
    std::printf("\nVS-property after heal: l=%s, measured l'=%s vs bound b=%s -> %s\n",
                harness::fmt_time(report.stability.l).c_str(),
                harness::fmt_time(*report.required_lprime).c_str(),
                harness::fmt_time(b).c_str(), report.holds_with(b) ? "HOLDS" : "EXCEEDED");
    std::printf("max send->safe-everywhere lag: %s (bound d=%s)\n",
                harness::fmt_time(report.max_safe_lag).c_str(),
                harness::fmt_time(d).c_str());
  }
  const auto violations = world.check_vs_safety();
  std::printf("VS safety: %s\n", violations.empty() ? "OK" : violations.front().c_str());
  return violations.empty() ? 0 : 1;
}
