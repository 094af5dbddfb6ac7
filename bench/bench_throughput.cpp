// E6 — token-ring ordering throughput: the token is the serialization
// point, so confirmed-delivery throughput is governed by the token launch
// spacing pi and the ring size n (each lap batches everything buffered
// since the previous lap). We saturate every member with client traffic
// and measure confirmed deliveries per second at one processor, sweeping n
// and pi.
//
// With `--export PATH` the full sweep's metrics registry (per-cell
// registries merged in cell order) is written as a vsg-metrics-v1 JSON
// snapshot; see docs/OBSERVABILITY.md. `--jobs N` runs the sweep's
// independent Worlds on N threads (0 = hardware concurrency) — counters in
// the merged snapshot are identical to a sequential run, only the wall
// clock moves.
//
// `--churn` switches to the crash/rejoin workload behind the PR 6
// evidence: members drop out and return on a fixed schedule, forcing a
// state exchange per membership change; ring.state_exchange_bytes in the
// exported snapshot measures the digest/delta exchange (docs/WIRE.md,
// "State exchange"). Combined with `--shards K` the same churn cadence
// runs inside the sharded workload.
//
// `--timeline-out PATH` (single-World workloads: --shards K, or the last
// rate of a --rate sweep) additionally samples every registry on a
// virtual-time interval and writes the run's vsg-timeseries-v1 timeline;
// render it with tools/vsg_report (docs/OBSERVABILITY.md, "Timelines").
//
// `--rate R1[,R2,...]` switches to the open-loop latency-under-load
// workload (PR 10 evidence, docs/FLOWCONTROL.md): arrivals at a fixed
// offered rate against a deliberately capacity-limited ring, reporting
// end-to-end latency percentiles, shed/deferred counts and
// backlog_growth health events per rate. Compose with `--budget BYTES`
// (per-pass boarding budget), `--gate shed|defer` + `--backlog N`
// (sender-side admission gate), and `--churn` (crash/rejoin cadence
// inside the load window). Spans are on,
// so the exported snapshot carries the per-phase to.phase_latency.*
// histograms alongside to.brcv_latency.*.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/sharded_kv.hpp"
#include "exec/parallel.hpp"
#include "harness/stats.hpp"
#include "harness/world.hpp"
#include "obs/json_exporter.hpp"
#include "obs/stopwatch.hpp"
#include "util/keydist.hpp"
#include "util/rng.hpp"

using namespace vsg;

namespace {

double run_one(int n, sim::Time pi, std::uint64_t seed,
               const std::shared_ptr<obs::MetricsRegistry>& metrics) {
  obs::ScopedWallTimer timer(
      metrics->histogram("bench.run_wall", obs::Unit::kWallMicros));

  harness::WorldConfig cfg;
  cfg.n = n;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.ring.pi = pi;
  cfg.seed = seed;
  cfg.metrics = metrics;  // all sweep runs accumulate into one registry
  harness::World world(cfg);

  // Saturation: every processor submits a value every pi/4.
  const sim::Time gap = pi / 4;
  const sim::Time start = sim::msec(500);
  const sim::Time end = start + sim::sec(8);
  for (sim::Time t = start; t < end; t += gap)
    for (ProcId p = 0; p < n; ++p)
      world.bcast_at(t, p, "v");
  world.run_until(end + sim::sec(4));

  // Measure confirmed deliveries at processor 0 in the steady window.
  const auto delivered = harness::deliveries_at(world.recorder().events(), 0,
                                                start + sim::sec(1), end);
  const double secs = static_cast<double>(end - (start + sim::sec(1))) / 1e6;
  return static_cast<double>(delivered) / secs;
}

// Crash/rejoin workload: every 1.5 simulated seconds one member (round-
// robin over 1..n-1; processor 0 stays up as the delivery observer) goes
// bad for a second and returns. Each departure and each return forms a new
// view, and every view change triggers a full state exchange — the traffic
// the digest/delta protocol compresses. Crashed processors keep their
// in-memory state across the outage (kBad silences, it does not reset), so
// on rejoin a digest exchange discovers that peers lack almost nothing.
std::uint64_t run_churn(int n, sim::Time pi, std::uint64_t seed,
                        const std::shared_ptr<obs::MetricsRegistry>& metrics) {
  obs::ScopedWallTimer timer(
      metrics->histogram("bench.run_wall", obs::Unit::kWallMicros));

  harness::WorldConfig cfg;
  cfg.n = n;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.ring.pi = pi;
  cfg.seed = seed;
  cfg.metrics = metrics;
  harness::World world(cfg);

  const sim::Time start = sim::msec(500);
  const sim::Time end = start + sim::sec(12);
  // Moderate load: one value per member per token lap keeps the ring busy
  // (and the summaries growing) without swamping the exchange traffic.
  for (sim::Time t = start; t < end; t += pi)
    for (ProcId p = 0; p < n; ++p)
      world.bcast_at(t, p, "v");

  int cycle = 0;
  for (sim::Time t = start + sim::sec(1); t + sim::sec(1) < end; t += sim::msec(1500)) {
    const ProcId victim = 1 + static_cast<ProcId>(cycle++ % (n - 1));
    world.proc_status_at(t, victim, sim::Status::kBad);
    world.proc_status_at(t + sim::sec(1), victim, sim::Status::kGood);
  }
  // Run well past the last submission so every world reaches quiescence:
  // at that point the TO-level client counters are workload-determined.
  world.run_until(end + sim::sec(6));
  return harness::deliveries_at(world.recorder().events(), 0, start, end + sim::sec(6));
}

// Sharded scaling workload (PR 8 evidence): one substrate, K independent
// token rings, keys spread over the rings by the stable ShardRouter hash.
// The single ring is deliberately capacity-limited (max_entries_per_pass
// bounds how much the token batches per visit), and the offered Zipf write
// load is sized well past that capacity — so K=1 saturates at the ring's
// ordering rate while K rings split the same load into K independent
// serialization points. The scaling claim (docs/SHARDING.md) is aggregate
// applied-writes in the steady window growing with K.
std::uint64_t run_sharded(int shards, double zipf_s, bool churn, std::uint64_t seed,
                          const std::string& timeline_out,
                          const std::shared_ptr<obs::MetricsRegistry>& metrics) {
  obs::ScopedWallTimer timer(
      metrics->histogram("bench.run_wall", obs::Unit::kWallMicros));

  const int n = 4;
  harness::WorldConfig cfg;
  cfg.n = n;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.shards = shards;
  cfg.ring.pi = sim::msec(40);
  cfg.ring.max_entries_per_pass = 2;  // the per-ring capacity bound
  cfg.seed = seed;
  // Virtual-time telemetry rides along only when asked for; the sampler
  // reads registries without touching the protocol, so the delivered-ops
  // numbers are identical either way (docs/OBSERVABILITY.md, "Timelines").
  cfg.sampler.enabled = !timeline_out.empty();
  harness::World world(cfg);

  std::vector<to::Service*> services;
  for (int k = 0; k < shards; ++k) services.push_back(&world.stack(k));
  app::ShardedKV kv(services);

  // Open-system offered load: every processor submits a Zipf-keyed write
  // every 4ms — far above one capacity-limited ring's ordering rate.
  const util::KeyDist dist(512, zipf_s);
  util::Rng keys_rng(seed * 7919 + 17);
  const sim::Time gap = sim::msec(4);
  const sim::Time start = sim::msec(500);
  const sim::Time end = start + sim::sec(8);
  std::uint64_t offered = 0;
  for (sim::Time t = start; t < end; t += gap) {
    for (ProcId p = 0; p < n; ++p) {
      const std::string key = util::KeyDist::key_name(dist.next(keys_rng));
      world.simulator().at(t, [&kv, p, key] { kv.write(p, key, "v"); });
      ++offered;
    }
  }

  // --churn composes with --shards: the same crash/rejoin cadence as the
  // plain churn workload, hitting every ring at once (one substrate). Off
  // by default so the established K-scaling numbers stay untouched.
  if (churn) {
    int cycle = 0;
    for (sim::Time t = start + sim::sec(1); t + sim::sec(1) < end; t += sim::msec(1500)) {
      const ProcId victim = 1 + static_cast<ProcId>(cycle++ % (n - 1));
      world.proc_status_at(t, victim, sim::Status::kBad);
      world.proc_status_at(t + sim::sec(1), victim, sim::Status::kGood);
    }
  }

  // Aggregate applied writes at replica 0 across all shards, inside the
  // steady window.
  const sim::Time window_start = start + sim::sec(1);
  std::uint64_t at_start = 0, at_end = 0;
  world.simulator().at(window_start, [&] { at_start = kv.total_applied(0); });
  world.simulator().at(end, [&] { at_end = kv.total_applied(0); });
  world.run_until(end + sim::sec(2));

  const std::uint64_t delivered = at_end - at_start;
  const double secs = static_cast<double>(end - window_start) / 1e6;
  world.collect_shard_metrics();
  if (!timeline_out.empty()) {
    if (world.write_timeline(timeline_out))
      std::printf("timeline written to %s\n", timeline_out.c_str());
    else
      std::fprintf(stderr, "cannot write %s\n", timeline_out.c_str());
  }
  metrics->merge_from(world.metrics());
  const std::string tag = "bench.sharded.k" + std::to_string(shards);
  metrics->gauge(tag + ".delivered_ops").set(static_cast<std::int64_t>(delivered));
  metrics->gauge(tag + ".deliv_per_sec")
      .set(static_cast<std::int64_t>(static_cast<double>(delivered) / secs));
  metrics->gauge(tag + ".offered").set(static_cast<std::int64_t>(offered));
  return delivered;
}

// Open-loop latency-under-load workload (PR 10 evidence): a fixed offered
// rate against one deliberately capacity-limited ring (n=4, pi=40ms,
// max_entries_per_pass=2 — about 200 boarded payloads/sec). Below capacity
// latency sits near the token spacing; past capacity an unprotected ring
// queues without bound (the backlog_growth watchdog fires), while a
// boarding budget plus the sender-side admission gate keeps the queue — and
// therefore the latency of everything that is admitted — bounded
// (docs/FLOWCONTROL.md).
struct RateCell {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t shed = 0;
  std::uint64_t deferred = 0;
  std::size_t growth_events = 0;
  std::int64_t p50 = 0, p95 = 0, p99 = 0;  // to.brcv_latency.all, usec
};

RateCell run_rate(int rate, std::uint64_t budget, int gate /*0 off, 1 shed, 2 defer*/,
                  int max_backlog, bool churn, std::uint64_t seed,
                  const std::string& timeline_out,
                  const std::shared_ptr<obs::MetricsRegistry>& metrics) {
  obs::ScopedWallTimer timer(
      metrics->histogram("bench.run_wall", obs::Unit::kWallMicros));

  const int n = 4;
  harness::WorldConfig cfg;
  cfg.n = n;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.ring.pi = sim::msec(40);
  cfg.ring.max_entries_per_pass = 2;  // the per-ring capacity bound
  cfg.ring.board_budget_bytes = static_cast<std::size_t>(budget);
  if (gate != 0) cfg.ring.admission_max_backlog = static_cast<std::size_t>(max_backlog);
  cfg.seed = seed;
  cfg.sampler.enabled = true;  // the backlog_growth watchdog is the verdict
  cfg.trace.enabled = true;    // per-phase to.phase_latency.* spans
  harness::World world(cfg);

  RateCell cell;
  const sim::Time gap = std::max<sim::Time>(1, sim::Time{1'000'000} / rate);
  const sim::Time start = sim::msec(500);
  const sim::Time end = start + sim::sec(8);
  int rr = 0;
  for (sim::Time t = start; t < end; t += gap) {
    const ProcId p = static_cast<ProcId>(rr++ % n);
    ++cell.offered;
    if (gate == 1) {
      // Shed policy: an open-loop sender would rather lose the sample than
      // queue it behind a saturated ring.
      world.simulator().at(t, [&world, p] { world.stack().trysend(p, "v"); });
    } else {
      world.bcast_at(t, p, "v");  // defer policy (or no gate): never dropped
    }
  }
  if (churn) {
    int cycle = 0;
    for (sim::Time t = start + sim::sec(1); t + sim::sec(1) < end; t += sim::msec(1500)) {
      const ProcId victim = 1 + static_cast<ProcId>(cycle++ % (n - 1));
      world.proc_status_at(t, victim, sim::Status::kBad);
      world.proc_status_at(t + sim::sec(1), victim, sim::Status::kGood);
    }
  }
  world.run_until(end + sim::sec(4));

  cell.delivered =
      harness::deliveries_at(world.recorder().events(), 0, start, end + sim::sec(4));
  if (gate != 0) {
    cell.shed = world.metrics().counter("ring.sends_shed").value();
    cell.deferred = world.metrics().counter("ring.sends_deferred").value();
  }
  const auto& lat = world.metrics().histogram("to.brcv_latency.all");
  cell.p50 = lat.quantile_upper(0.50);
  cell.p95 = lat.quantile_upper(0.95);
  cell.p99 = lat.quantile_upper(0.99);
  for (const auto& e : world.sampler()->health().events())
    if (e.rule == "backlog_growth") ++cell.growth_events;
  if (!timeline_out.empty()) {
    if (world.write_timeline(timeline_out))
      std::printf("timeline written to %s\n", timeline_out.c_str());
    else
      std::fprintf(stderr, "cannot write %s\n", timeline_out.c_str());
  }

  const std::string tag = "bench.rate.r" + std::to_string(rate);
  metrics->merge_from(world.metrics(), tag + ".");
  metrics->gauge(tag + ".offered").set(static_cast<std::int64_t>(cell.offered));
  metrics->gauge(tag + ".delivered").set(static_cast<std::int64_t>(cell.delivered));
  metrics->gauge(tag + ".shed").set(static_cast<std::int64_t>(cell.shed));
  metrics->gauge(tag + ".deferred").set(static_cast<std::int64_t>(cell.deferred));
  metrics->gauge(tag + ".backlog_growth_events")
      .set(static_cast<std::int64_t>(cell.growth_events));
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto export_path = obs::export_path_from_args(argc, argv);
  bool churn = false;
  int jobs = 1;
  int shards = 0;       // 0: classic sweep; K >= 1: sharded scaling workload
  double zipf_s = 1.1;  // key-popularity skew of the sharded workload
  std::string timeline_out;  // vsg-timeseries-v1 dump of the sharded World
  std::vector<int> rates;    // open-loop offered rates (values/sec), in order
  std::uint64_t budget = 0;  // boarding budget, bytes/pass (0: unbounded)
  int gate = 0;              // 0: off, 1: shed, 2: defer
  int backlog = 64;          // admission_max_backlog when gated
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--churn") == 0) churn = true;
    if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      std::string list = argv[i + 1];
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        const int r = std::atoi(list.substr(pos, comma - pos).c_str());
        if (r < 1) {
          std::fprintf(stderr, "--rate takes positive values/sec, comma-separated\n");
          return 2;
        }
        rates.push_back(r);
        pos = comma + 1;
      }
    }
    if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      const long long b = std::atoll(argv[i + 1]);
      if (b < 1) {
        std::fprintf(stderr, "--budget takes a positive byte count\n");
        return 2;
      }
      budget = static_cast<std::uint64_t>(b);
    }
    if (std::strcmp(argv[i], "--gate") == 0 && i + 1 < argc) {
      if (std::strcmp(argv[i + 1], "shed") == 0)
        gate = 1;
      else if (std::strcmp(argv[i + 1], "defer") == 0)
        gate = 2;
      else if (std::strcmp(argv[i + 1], "off") == 0)
        gate = 0;
      else {
        std::fprintf(stderr, "--gate takes shed, defer or off (docs/FLOWCONTROL.md)\n");
        return 2;
      }
    }
    if (std::strcmp(argv[i], "--backlog") == 0 && i + 1 < argc) {
      backlog = std::atoi(argv[i + 1]);
      if (backlog < 1) {
        std::fprintf(stderr, "--backlog takes a positive entry count\n");
        return 2;
      }
    }
    if (std::strcmp(argv[i], "--timeline-out") == 0 && i + 1 < argc)
      timeline_out = argv[i + 1];
    if (std::strncmp(argv[i], "--timeline-out=", 15) == 0) timeline_out = argv[i] + 15;
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[i + 1]);
      if (shards < 1 || shards > harness::kMaxShards) {
        std::fprintf(stderr, "--shards takes 1..%d\n", harness::kMaxShards);
        return 2;
      }
    }
    if (std::strcmp(argv[i], "--zipf") == 0 && i + 1 < argc) {
      zipf_s = std::atof(argv[i + 1]);
      if (zipf_s < 0) {
        std::fprintf(stderr, "--zipf takes a non-negative skew (0 = uniform)\n");
        return 2;
      }
    }
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[i + 1]);
      if (jobs < 0) {
        std::fprintf(stderr, "--jobs takes a non-negative count (0 = hardware)\n");
        return 2;
      }
    }
  }
  if (!timeline_out.empty() && shards < 1 && rates.empty()) {
    std::fprintf(stderr, "--timeline-out needs a single-World workload; add --shards K "
                         "or --rate R (docs/OBSERVABILITY.md)\n");
    return 2;
  }
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  const std::int64_t sweep_start = obs::wall_now_us();

  if (!rates.empty()) {
    const char* gate_name = gate == 0 ? "off" : (gate == 1 ? "shed" : "defer");
    std::printf("E10: latency vs offered load — capacity-limited ring (n=4, pi=40ms, "
                "2 entries/pass)\n     budget=%llu bytes/pass%s, gate=%s",
                static_cast<unsigned long long>(budget),
                budget > 0 ? "" : " (unbounded)", gate_name);
    if (gate != 0) std::printf(" (backlog limit %d)", backlog);
    std::printf("%s\n\n", churn ? ", crash/rejoin churn" : "");
    const std::vector<int> widths{8, 9, 11, 7, 10, 9, 9, 9, 8};
    std::printf("%s\n",
                harness::fmt_row({"rate/s", "offered", "delivered", "shed", "deferred",
                                  "p50us", "p95us", "p99us", "growth"},
                                 widths)
                    .c_str());
    std::uint64_t growth_total = 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      // The timeline (if asked for) captures the last — typically hottest —
      // rate of the sweep.
      const RateCell cell = run_rate(rates[i], budget, gate, backlog, churn,
                                     4500 + static_cast<std::uint64_t>(i),
                                     i + 1 == rates.size() ? timeline_out : "", metrics);
      growth_total += cell.growth_events;
      std::printf("%s\n",
                  harness::fmt_row(
                      {std::to_string(rates[i]), std::to_string(cell.offered),
                       std::to_string(cell.delivered), std::to_string(cell.shed),
                       std::to_string(cell.deferred), std::to_string(cell.p50),
                       std::to_string(cell.p95), std::to_string(cell.p99),
                       std::to_string(cell.growth_events)},
                      widths)
                      .c_str());
    }
    // The greppable verdict line check.sh asserts on: a budgeted, gated run
    // over capacity must keep the queue bounded (docs/FLOWCONTROL.md).
    std::printf("\nbacklog_growth events: %llu\n",
                static_cast<unsigned long long>(growth_total));
    std::printf("\nreading: below capacity (~200/s) latency rides the token spacing; "
                "past it an\nunprotected ring queues without bound (growth events), "
                "while the boarding budget\nplus admission gate sheds or defers at the "
                "sender and keeps admitted latency flat.\n");
  } else if (shards >= 1) {
    std::printf("E8: sharded aggregate throughput — %d ring%s over one substrate "
                "(zipf s=%.2f, n=4, capacity-limited rings%s)\n\n",
                shards, shards == 1 ? "" : "s", zipf_s,
                churn ? ", crash/rejoin churn" : "");
    const std::uint64_t delivered =
        run_sharded(shards, zipf_s, churn, 4400, timeline_out, metrics);
    const auto per_sec = metrics->gauge("bench.sharded.k" + std::to_string(shards) +
                                        ".deliv_per_sec")
                             .value();
    const auto offered = metrics->gauge("bench.sharded.k" + std::to_string(shards) +
                                        ".offered")
                             .value();
    std::printf("shards=%d  delivered_ops=%llu (steady window)  deliv/sec=%lld  "
                "offered=%lld writes\n",
                shards, static_cast<unsigned long long>(delivered),
                static_cast<long long>(per_sec), static_cast<long long>(offered));
    std::printf("\nreading: each ring's token is its own serialization point; the "
                "offered load\nexceeds one capacity-limited ring, so aggregate applied "
                "writes grow with K\nuntil the load splits below per-ring capacity "
                "(docs/SHARDING.md).\n");
  } else if (churn) {
    std::printf("E6-churn: crash/rejoin state-exchange traffic (jobs %d)\n\n",
                exec::effective_jobs(jobs, 3));
    const std::vector<int> widths{6, 4, 14};
    std::printf("%s\n", harness::fmt_row({"seed", "n", "deliveries"}, widths).c_str());
    // Parallel axis: each seed runs its own World with its own registry;
    // the per-cell registries merge into the shared one in seed order, so
    // the exported counters are identical to a sequential shared-registry
    // sweep (merge is associative/commutative over counter adds).
    std::vector<std::shared_ptr<obs::MetricsRegistry>> cell_metrics(3);
    std::vector<std::uint64_t> cell_delivered(3);
    exec::run_parallel(jobs, cell_metrics.size(), [&](std::size_t i) {
      cell_metrics[i] = std::make_shared<obs::MetricsRegistry>();
      cell_delivered[i] = run_churn(5, sim::msec(40), 3100 + i, cell_metrics[i]);
    });
    for (std::uint64_t i = 0; i < 3; ++i) {
      const std::uint64_t seed = 3100 + i;
      const std::uint64_t delivered = cell_delivered[i];
      metrics->merge_from(*cell_metrics[i]);
      metrics->gauge("bench.churn_deliveries.seed" + std::to_string(seed))
          .set(static_cast<std::int64_t>(delivered));
      std::printf("%s\n",
                  harness::fmt_row({std::to_string(seed), "5", std::to_string(delivered)},
                                   widths)
                      .c_str());
    }
    std::printf("\nexchange bytes (all runs):\n");
    std::printf("  ring.state_exchange_bytes          %llu\n",
                static_cast<unsigned long long>(
                    metrics->counter("ring.state_exchange_bytes").value()));
    std::printf("  ring.state_exchange_bytes.summary  %llu\n",
                static_cast<unsigned long long>(
                    metrics->counter("ring.state_exchange_bytes.summary").value()));
    std::printf("  ring.state_exchange_bytes.digest   %llu\n",
                static_cast<unsigned long long>(
                    metrics->counter("ring.state_exchange_bytes.digest").value()));
    std::printf("  ring.state_exchange_bytes.delta    %llu\n",
                static_cast<unsigned long long>(
                    metrics->counter("ring.state_exchange_bytes.delta").value()));
    std::printf("  to.values_sent                     %llu\n",
                static_cast<unsigned long long>(
                    metrics->counter("to.values_sent").value()));
    std::printf("  to.labels_assigned                 %llu\n",
                static_cast<unsigned long long>(
                    metrics->counter("to.labels_assigned").value()));
  } else {
    std::printf(
        "E6: confirmed-delivery throughput vs ring size and token spacing (jobs %d)\n\n",
        exec::effective_jobs(jobs, 15));
    const std::vector<int> widths{4, 10, 14, 16};
    std::printf("%s\n",
                harness::fmt_row({"n", "pi", "deliv/sec", "offered/sec"}, widths).c_str());
    struct Cell {
      int n;
      sim::Time pi;
    };
    std::vector<Cell> cells;
    for (int n : {2, 3, 4, 6, 8})
      for (sim::Time pi : {sim::msec(20), sim::msec(40), sim::msec(80)})
        cells.push_back({n, pi});
    // Same pattern as the churn sweep: independent Worlds in parallel,
    // per-cell registries, deterministic cell-order merge afterwards.
    std::vector<std::shared_ptr<obs::MetricsRegistry>> cell_metrics(cells.size());
    std::vector<double> cell_rate(cells.size());
    exec::run_parallel(jobs, cells.size(), [&](std::size_t i) {
      cell_metrics[i] = std::make_shared<obs::MetricsRegistry>();
      cell_rate[i] =
          run_one(cells[i].n, cells[i].pi, 2200 + cells[i].n, cell_metrics[i]);
    });
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const int n = cells[i].n;
      const sim::Time pi = cells[i].pi;
      const double rate = cell_rate[i];
      metrics->merge_from(*cell_metrics[i]);
      const double offered = static_cast<double>(n) / (static_cast<double>(pi / 4) / 1e6);
      metrics
          ->gauge("bench.deliv_per_sec.n" + std::to_string(n) + ".pi_ms" +
                  std::to_string(pi / 1000))
          .set(static_cast<std::int64_t>(rate));
      char r[24], o[24];
      std::snprintf(r, sizeof r, "%.0f", rate);
      std::snprintf(o, sizeof o, "%.0f", offered);
      std::printf("%s\n", harness::fmt_row({std::to_string(n), harness::fmt_time(pi), r, o},
                                           widths)
                              .c_str());
    }
    std::printf(
        "\nreading: the token batches, so throughput tracks the offered load (all\n"
        "submitted values are confirmed) while latency is governed by pi (see E2);\n"
        "the serialization point does not collapse as n grows.\n");
  }

  // Wall-clock evidence for the parallel axis: total sweep time and the
  // job count land in the exported snapshot next to the per-run
  // bench.run_wall histogram.
  metrics->gauge("bench.sweep_wall_us").set(obs::wall_now_us() - sweep_start);
  metrics->gauge("bench.jobs")
      .set(!rates.empty() || shards >= 1 ? 1 : exec::effective_jobs(jobs, churn ? 3 : 15));

  if (export_path) {
    if (!obs::JsonExporter::write_file(*metrics, *export_path, "bench_throughput")) {
      std::fprintf(stderr, "failed to write %s\n", export_path->c_str());
      return 1;
    }
    std::printf("\nmetrics snapshot written to %s\n", export_path->c_str());
  }
  return 0;
}
