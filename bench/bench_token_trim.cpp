// Ablation — token trimming (DESIGN.md design choice): the token carries
// the per-view order, so without trimming safe entries it grows with the
// view's entire history and every lap re-ships it; with trimming its size
// is bounded by the in-flight window. Same workload, trim on vs off.

#include <cstdio>
#include <memory>

#include "harness/scenario.hpp"
#include "harness/stats.hpp"
#include "harness/world.hpp"
#include "obs/json_exporter.hpp"
#include "obs/stopwatch.hpp"

using namespace vsg;

namespace {

struct Result {
  std::uint64_t max_entries;
  double mean_token_kb;
  std::uint64_t total_mb;
};

Result run_one(bool trim, int messages, std::uint64_t seed,
               const std::shared_ptr<obs::MetricsRegistry>& metrics) {
  obs::ScopedWallTimer timer(
      metrics->histogram("bench.run_wall", obs::Unit::kWallMicros));
  harness::WorldConfig cfg;
  cfg.n = 4;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.ring.trim_token = trim;
  cfg.seed = seed;
  // Each run counts into its own registry, so the cell reads this run's
  // values; the sweep registry then folds it in (gauges add).
  cfg.metrics = std::make_shared<obs::MetricsRegistry>();
  harness::World world(cfg);

  harness::steady_traffic({0, 1, 2, 3}, messages, sim::msec(100), sim::msec(10))
      .apply(world);
  world.run_until(sim::msec(100) + messages * sim::msec(10) + sim::sec(3));

  const obs::MetricsRegistry& reg = world.metrics();
  const auto count = [&](const char* name) {
    const obs::Counter* c = reg.find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  const obs::Gauge* max_entries = reg.find_gauge("ring.max_token_entries");
  const std::uint64_t token_bytes = count("ring.state_exchange_bytes");
  Result r;
  r.max_entries =
      max_entries == nullptr ? 0 : static_cast<std::uint64_t>(max_entries->value());
  const std::uint64_t forwards =
      count("ring.token_rotations");  // ~one forward per processing step
  r.mean_token_kb =
      forwards == 0 ? 0.0 : static_cast<double>(token_bytes) / 1024.0 / forwards;
  r.total_mb = token_bytes / (1024 * 1024);
  metrics->merge_from(reg);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto export_path = obs::export_path_from_args(argc, argv);
  auto metrics = std::make_shared<obs::MetricsRegistry>();

  std::printf("Ablation: token trimming (safe-prefix garbage collection)\n\n");
  const std::vector<int> widths{10, 8, 14, 16, 12};
  std::printf("%s\n", harness::fmt_row({"trim", "msgs", "max entries", "mean token KB",
                                        "total MB"},
                                       widths)
                          .c_str());
  for (int messages : {50, 200, 800}) {
    for (bool trim : {true, false}) {
      const auto r = run_one(trim, messages, 4242, metrics);
      const std::string key =
          std::string(trim ? ".trim" : ".notrim") + ".m" + std::to_string(messages);
      metrics->gauge("bench.max_token_entries" + key)
          .set(static_cast<std::int64_t>(r.max_entries));
      metrics->gauge("bench.token_total_mb" + key)
          .set(static_cast<std::int64_t>(r.total_mb));
      char mean[24];
      std::snprintf(mean, sizeof mean, "%.2f", r.mean_token_kb);
      std::printf("%s\n",
                  harness::fmt_row({trim ? "on" : "off", std::to_string(messages * 4),
                                    std::to_string(r.max_entries), mean,
                                    std::to_string(r.total_mb)},
                                   widths)
                      .c_str());
    }
  }
  std::printf("\nreading: with trimming the token stays bounded by the in-flight window\n"
              "regardless of history length; without it, bytes-per-lap grow linearly\n"
              "with everything the view ever ordered.\n");

  if (export_path) {
    if (!obs::JsonExporter::write_file(*metrics, *export_path, "bench_token_trim")) {
      std::fprintf(stderr, "failed to write %s\n", export_path->c_str());
      return 1;
    }
    std::printf("\nmetrics snapshot written to %s\n", export_path->c_str());
  }
  return 0;
}
