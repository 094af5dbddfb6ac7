// Ablation — footnote 7: "A different implementation could use the
// one-round protocol of [19]. However, this would stabilize less quickly."
// Same partition/heal scenario under the 3-round (call/accept/announce)
// and 1-round (announce-from-estimate) formation protocols; compare the
// measured stabilization l' of the merged group and the view churn.

#include <cstdio>
#include <memory>
#include <set>

#include "harness/stats.hpp"
#include "harness/world.hpp"
#include "obs/json_exporter.hpp"
#include "obs/stopwatch.hpp"

using namespace vsg;

namespace {

struct Result {
  sim::Time merge_lprime = -1;
  std::uint64_t views = 0;
  std::uint64_t proposals = 0;
  bool safe = false;
};

Result run_one(membership::FormationMode mode, int n, std::uint64_t seed,
               const std::shared_ptr<obs::MetricsRegistry>& metrics) {
  obs::ScopedWallTimer timer(
      metrics->histogram("bench.run_wall", obs::Unit::kWallMicros));
  harness::WorldConfig cfg;
  cfg.n = n;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.ring.formation = mode;
  cfg.seed = seed;
  // Each run counts into its own registry, so the cell reads this run's
  // values; the sweep registry then folds it in (gauges add).
  cfg.metrics = std::make_shared<obs::MetricsRegistry>();
  harness::World world(cfg);

  std::set<ProcId> left, right, all;
  for (ProcId p = 0; p < n; ++p) {
    (p < n / 2 ? left : right).insert(p);
    all.insert(p);
  }
  world.partition_at(sim::sec(1), {left, right});
  world.run_until(sim::sec(4));
  const sim::Time heal_at = world.simulator().now();
  world.heal_at(heal_at);
  world.run_until(heal_at + sim::sec(6));

  Result r;
  const auto report = world.vs_report(all, 3 * (cfg.ring.pi + n * cfg.ring.delta));
  if (report.required_lprime.has_value()) r.merge_lprime = *report.required_lprime;
  const auto count = [&](const char* name) {
    const obs::Counter* c = world.metrics().find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  r.views = count("ring.views_installed");
  r.proposals = count("ring.formation_rounds");
  r.safe = world.check_vs_safety().empty();
  metrics->merge_from(world.metrics());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto export_path = obs::export_path_from_args(argc, argv);
  auto metrics = std::make_shared<obs::MetricsRegistry>();

  std::printf("Ablation (footnote 7): 3-round vs 1-round membership formation\n");
  std::printf("partition at 1s, heal at 4s; merge stabilization l' of the full group\n\n");
  const std::vector<int> widths{4, 10, 8, 14, 8, 11, 6};
  std::printf("%s\n", harness::fmt_row({"n", "mode", "seed", "merge l'", "views",
                                        "proposals", "safe"},
                                       widths)
                          .c_str());
  double sum3 = 0, sum1 = 0;
  int count = 0;
  bool all_safe = true;
  for (int n : {4, 6}) {
    for (std::uint64_t seed : {11u, 22u, 33u}) {
      for (const auto mode :
           {membership::FormationMode::kThreeRound, membership::FormationMode::kOneRound}) {
        const auto r = run_one(mode, n, seed, metrics);
        all_safe = all_safe && r.safe;
        const bool three = mode == membership::FormationMode::kThreeRound;
        if (r.merge_lprime >= 0)
          metrics
              ->gauge("bench.merge_lprime_us." + std::string(three ? "r3" : "r1") + ".n" +
                      std::to_string(n) + ".s" + std::to_string(seed))
              .set(r.merge_lprime);
        if (r.merge_lprime >= 0) {
          (three ? sum3 : sum1) += static_cast<double>(r.merge_lprime);
          if (three) ++count;
        }
        std::printf("%s\n",
                    harness::fmt_row({std::to_string(n), three ? "3-round" : "1-round",
                                      std::to_string(seed),
                                      r.merge_lprime < 0 ? "never"
                                                         : harness::fmt_time(r.merge_lprime),
                                      std::to_string(r.views), std::to_string(r.proposals),
                                      r.safe ? "yes" : "NO"},
                                     widths)
                        .c_str());
      }
    }
  }
  if (count > 0) {
    std::printf("\nmean merge l': 3-round %.1fms, 1-round %.1fms\n", sum3 / count / 1000.0,
                sum1 / count / 1000.0);
    std::printf("footnote 7 claim (1-round stabilizes less quickly): %s\n",
                (sum1 > sum3 && all_safe) ? "REPRODUCED" : "NOT clearly reproduced");
  }

  if (export_path) {
    if (!obs::JsonExporter::write_file(*metrics, *export_path, "bench_formation_rounds")) {
      std::fprintf(stderr, "failed to write %s\n", export_path->c_str());
      return 1;
    }
    std::printf("\nmetrics snapshot written to %s\n", export_path->c_str());
  }
  return all_safe ? 0 : 1;
}
