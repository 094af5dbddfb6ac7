// Partition & heal walkthrough: five processors split 3-2; the majority
// side keeps confirming client values, the minority stalls (no quorum, no
// primary view); after the network heals, the state-exchange recovery of
// Section 5 merges both histories into one total order.
//
//   $ ./partition_heal
//
// The run narrates view changes and deliveries, then evaluates the paper's
// conditional properties (VS-property / TO-property) over the recorded
// timed trace.

#include <cstdio>

#include "harness/stats.hpp"
#include "harness/world.hpp"

int main() {
  using namespace vsg;

  harness::WorldConfig cfg;
  cfg.n = 5;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.seed = 7;
  harness::World world(cfg);

  // Narrate view changes and confirmed deliveries at two observers.
  world.recorder().subscribe([&](const trace::TimedEvent& te) {
    if (const auto* v = trace::as<trace::NewViewEvent>(te))
      std::printf("  t=%-9s newview at %d: %s\n",
                  harness::fmt_time(te.at).c_str(), v->p, core::to_string(v->view()).c_str());
    if (const auto* b = trace::as<trace::BrcvEvent>(te))
      if (b->dest == 0 || b->dest == 3)
        std::printf("  t=%-9s processor %d delivers \"%s\"\n",
                    harness::fmt_time(te.at).c_str(), b->dest, b->a.c_str());
  });

  std::printf("== t=100ms: partition {0,1,2} | {3,4}\n");
  world.partition_at(sim::msec(100), {{0, 1, 2}, {3, 4}});

  std::printf("== t=2s: both sides submit values\n");
  world.bcast_at(sim::sec(2), 0, "written-on-majority-side");
  world.bcast_at(sim::sec(2), 4, "written-on-minority-side");

  std::printf("== t=4s: heal\n");
  world.heal_at(sim::sec(4));
  world.run_until(sim::sec(12));

  std::printf("\nfinal delivery sequences:\n");
  for (ProcId p = 0; p < 5; ++p) {
    std::printf("  processor %d:", p);
    for (const auto& [origin, value] : world.stack().process(p).delivered())
      std::printf(" \"%s\"", value.c_str());
    std::printf("\n");
  }

  const auto to_violations = world.check_to_safety();
  const auto vs_violations = world.check_vs_safety();
  std::printf("\nsafety: TO %s, VS %s\n", to_violations.empty() ? "OK" : "VIOLATED",
              vs_violations.empty() ? "OK" : "VIOLATED");

  // After the heal, the stabilized component is everyone.
  const sim::Time d = 3 * (cfg.ring.pi + 5 * cfg.ring.delta);
  const auto report = world.to_report({0, 1, 2, 3, 4}, d, sim::sec(10));
  if (report.stability.premise_holds && report.required_lprime.has_value())
    std::printf("TO-property: stabilized at l=%s, required l'=%s (d=%s)\n",
                harness::fmt_time(report.stability.l).c_str(),
                harness::fmt_time(*report.required_lprime).c_str(),
                harness::fmt_time(d).c_str());

  return (to_violations.empty() && vs_violations.empty()) ? 0 : 1;
}
