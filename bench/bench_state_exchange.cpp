// E4 — recovery cost (Section 5): when a partition heals, every member of
// the new view sends one summary; the merge time and the bytes on the wire
// grow with the backlog of unconfirmed values accumulated during the
// partition. We sweep the backlog B and the group size n and measure
// (a) heal -> all-backlog-delivered-everywhere time and (b) network bytes
// attributable to the recovery window.

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
  sim::Time merge_time = -1;
  std::uint64_t bytes = 0;
  bool ok = false;
};

Result run_one(int n, int backlog, std::uint64_t seed,
               const std::shared_ptr<obs::MetricsRegistry>& metrics) {
  obs::ScopedWallTimer timer(
      metrics->histogram("bench.run_wall", obs::Unit::kWallMicros));
  harness::WorldConfig cfg;
  cfg.n = n;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.seed = seed;
  cfg.metrics = metrics;  // all sweep runs accumulate into one registry
  harness::World world(cfg);

  // Split into majority/minority; submit backlog on BOTH sides.
  std::set<ProcId> maj, min;
  for (ProcId p = 0; p < n; ++p) (2 * (p + 1) <= n ? min : maj).insert(p);
  world.partition_at(sim::msec(100), {maj, min});
  for (int k = 0; k < backlog; ++k) {
    world.bcast_at(sim::msec(300) + k * sim::usec(200), *maj.begin(),
                   "m" + std::to_string(k));
    world.bcast_at(sim::msec(300) + k * sim::usec(200), *min.begin(),
                   "x" + std::to_string(k));
  }
  world.run_until(sim::sec(3));
  // The sweep registry is shared, so the run's bytes are a difference.
  const obs::Counter* bytes_sent = world.metrics().find_counter("net.bytes_sent");
  const std::uint64_t bytes_before = bytes_sent->value();
  const sim::Time heal_at = world.simulator().now();
  world.heal_at(heal_at);

  // Run until every processor delivered all 2*backlog values (or timeout).
  const std::size_t want = static_cast<std::size_t>(2 * backlog);
  Result result;
  const sim::Time deadline = heal_at + sim::sec(60);
  while (world.simulator().now() < deadline) {
    bool done = true;
    for (ProcId p = 0; p < n; ++p)
      if (world.stack().process(p).delivered().size() < want) done = false;
    if (done) {
      result.merge_time = world.simulator().now() - heal_at;
      break;
    }
    if (!world.simulator().step()) break;
  }
  result.bytes = bytes_sent->value() - bytes_before;
  result.ok = result.merge_time >= 0 && world.check_to_safety().empty();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto export_path = obs::export_path_from_args(argc, argv);
  auto metrics = std::make_shared<obs::MetricsRegistry>();

  std::printf("E4: state-exchange recovery cost vs backlog (Section 5 recovery)\n");
  const std::vector<int> widths{4, 8, 14, 14, 8};
  bool all_ok = true;
  for (int n : {4, 6, 8}) {
    std::printf("\n-- n = %d (split %d|%d) --\n", n, n - n / 2, n / 2);
    std::printf("%s\n", harness::fmt_row({"n", "B", "merge time", "recovery KB", "ok"},
                                         widths)
                            .c_str());
    for (int backlog : {1, 10, 50, 100, 200}) {
      const auto r = run_one(n, backlog, 1700 + n * 10 + backlog, metrics);
      all_ok = all_ok && r.ok;
      const std::string key = ".n" + std::to_string(n) + ".b" + std::to_string(backlog);
      if (r.merge_time >= 0)
        metrics->gauge("bench.merge_time_us" + key).set(r.merge_time);
      metrics->gauge("bench.recovery_bytes" + key)
          .set(static_cast<std::int64_t>(r.bytes));
      char kb[32];
      std::snprintf(kb, sizeof kb, "%.1f", static_cast<double>(r.bytes) / 1024.0);
      std::printf("%s\n",
                  harness::fmt_row({std::to_string(n), std::to_string(backlog),
                                    r.merge_time < 0 ? "timeout"
                                                     : harness::fmt_time(r.merge_time),
                                    kb, r.ok ? "yes" : "NO"},
                                   widths)
                      .c_str());
    }
  }
  std::printf("\npaper claim: recovery = one summary per member; cost grows with the\n"
              "backlog, and all divergent history merges into one order -> %s\n",
              all_ok ? "REPRODUCED" : "NOT reproduced");

  if (export_path) {
    if (!obs::JsonExporter::write_file(*metrics, *export_path, "bench_state_exchange")) {
      std::fprintf(stderr, "failed to write %s\n", export_path->c_str());
      return 1;
    }
    std::printf("\nmetrics snapshot written to %s\n", export_path->c_str());
  }
  return all_ok ? 0 : 1;
}
