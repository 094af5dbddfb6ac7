// vsg_hostbench: what the paper's virtual-time claims cost on the host.
//
//   vsg_hostbench --workload W --seconds S [--seed N] [--trace 0|1]
//                 [--quick] [--export PATH]
//
// Untraced (--trace 0): runs W's units on harness::World for S seconds and
// prints the end-to-end metrics. Traced (--trace 1): runs every unit twice,
// on World and on the traced Rig, checks they agree bit for bit, and prints
// the per-layer metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; lines starting "det " carry
// the deterministic results (identical for a given seed on any host).
// README.md documents every metric.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/json_exporter.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

using namespace vsg;
using namespace bench;

namespace {

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 0;  // required; run.sh passes BENCHMARK.json's run_seconds
  bool trace = false;
  bool quick = false;
  std::string export_path;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--quick") {
      a.quick = true;
      continue;
    }
    if (val == nullptr) return std::nullopt;
    ++i;
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = find_workload(val);
      if (a.workload == nullptr) return std::nullopt;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600) return std::nullopt;
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return std::nullopt;
      a.trace = val[0] == '1';
    } else if (arg == "--export") {
      a.export_path = val;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload == nullptr || a.seconds == 0) return std::nullopt;
  return a;
}

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Nearest-rank percentile (q in (0, 1]).
template <class T>
T nearest_rank(std::vector<T> v, double q) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::uint64_t counter(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters)
    if (n == name) return v;
  return 0;
}

std::int64_t gauge(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.gauges)
    if (n == name) return v;
  return 0;
}

/// The first entry two snapshots disagree on ("" when they are equal).
std::string first_difference(const obs::MetricsSnapshot& a, const obs::MetricsSnapshot& b) {
  if (a == b) return "";
  for (const auto& [n, v] : a.counters)
    if (counter(b, n) != v) return n;
  for (const auto& [n, v] : a.gauges)
    if (gauge(b, n) != v) return n;
  for (const auto& h : a.histograms) {
    const auto it = std::find_if(b.histograms.begin(), b.histograms.end(),
                                 [&](const auto& o) { return o.name == h.name; });
    if (it == b.histograms.end() || !(*it == h)) return h.name;
  }
  return "(entries present on one side only)";
}

std::uint64_t digest(const obs::MetricsSnapshot& s) {
  const std::string json = obs::JsonExporter::to_json(s);
  return util::fnv1a(
      util::BufferView(reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
}

// --- reporting ----------------------------------------------------------------

enum class Tier { kEndToEnd, kLayer, kInfo };

struct Metric {
  std::string name;
  double value;
  std::string unit;
  Tier tier;
  bool wall;  // host-dependent; false for deterministic values
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> det;  // deterministic results
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit, Tier tier, bool wall) {
    metrics.push_back({std::move(name), value, std::move(unit), tier, wall});
    if (!wall) det.emplace_back(metrics.back().name, number(value));
  }

  // Prints everything, then the JSON line restricted to `tier`.
  int print(const Args& args, Tier tier, const obs::MetricsSnapshot& unit0) const {
    for (const auto& m : metrics)
      std::printf("  %-36s %16s %s\n", m.name.c_str(), number(m.value).c_str(), m.unit.c_str());
    for (const auto& [name, value] : det) std::printf("det %s %s\n", name.c_str(), value.c_str());
    for (const auto& e : errors) std::fprintf(stderr, "error: %s\n", e.c_str());
    if (!args.export_path.empty() && !write_export(args, unit0)) {
      std::fprintf(stderr, "failed to write %s\n", args.export_path.c_str());
      return 1;
    }
    std::string json = "{\"correct\": " + std::string(errors.empty() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& m : metrics) {
      if (m.tier != tier) continue;
      json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + number(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    std::printf("%s}}\n", json.c_str());
    return errors.empty() ? 0 : 1;
  }

  // vsg-metrics-v1: unit 0's registry plus every metric above as a gauge
  // scaled by 1000; host-dependent ones end in "wall_x1000", which
  // obs::is_wall_metric excludes from fingerprints.
  bool write_export(const Args& args, const obs::MetricsSnapshot& unit0) const {
    obs::MetricsRegistry reg;
    reg.merge_from(unit0);
    for (const auto& m : metrics)
      reg.gauge("bench." + m.name + (m.wall ? ".wall_x1000" : ".x1000"))
          .set(std::llround(m.value * 1000));
    return obs::JsonExporter::write_file(reg, args.export_path,
                                         std::string("vsg_hostbench ") + args.workload->name);
  }
};

// The whole process's peak resident set, for reference only: it also moves
// with huge pages and with the library pages the host keeps cached.
double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// bcast -> brcv latency at every receiver, in simulated time ("ms_sim", the
// repository's us_sim convention): exact for a given seed, so a change of
// host cost alone must leave it bit-identical.
void add_latencies(Report& rep, const std::vector<sim::Time>& lat, Tier tier) {
  rep.add("to.latency.p50_ms", static_cast<double>(nearest_rank(lat, 0.50)) / 1e3, "ms_sim",
          tier, false);
  rep.add("to.latency.p99_ms", static_cast<double>(nearest_rank(lat, 0.99)) / 1e3, "ms_sim",
          tier, false);
  rep.add("to.latency.samples", static_cast<double>(lat.size()), "count", tier, false);
}

// --- untraced run -------------------------------------------------------------

// Host speed. A shared host runs the same code up to twice as slowly at
// some moments as at others, so the wall times are scaled by a fixed piece
// of work timed just before and just after each unit, to what they would be
// on a host that runs it in kReferenceMs. The work resembles the program's
// hot paths (short strings hashed into a map, looked up, sorted) but calls
// no library code, so a change to the library leaves it alone.
constexpr double kReferenceMs = 5.0;
volatile std::uint64_t reference_sink;  // keeps the reference work from being optimised away

double reference_ms() {
  constexpr int kKeys = 20000;
  const std::int64_t t0 = now_ns();
  auto key = [](int i, int k) { return "p" + std::to_string(i % 8) + "#" + std::to_string(k); };
  std::unordered_map<std::string, std::uint64_t> map;
  std::vector<std::uint64_t> hashes;
  std::uint64_t h = 14695981039346656037ULL;
  for (int i = 0; i < kKeys; ++i) {
    const std::string k = key(i, i);
    for (const char c : k) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    map[k] += h;
    hashes.push_back(h);
  }
  std::sort(hashes.begin(), hashes.end());
  std::uint64_t sum = hashes[kKeys / 2];
  for (int i = 0; i < kKeys; ++i) {
    const auto it = map.find(key(i, (i * 7919) % kKeys));
    if (it != map.end()) sum += it->second;
  }
  reference_sink = sum;
  return seconds_since(t0) * 1e3;
}

// peak_heap_mb is the mean over the first kHeapUnits units (every run runs
// at least that many), so it repeats exactly for a given seed however many
// units fit, and one unit whose views happen to re-form often moves it
// little.
constexpr int kHeapUnits = 12;

int untraced(const Args& args) {
  const Workload& w = *args.workload;
  const bool chaos = w.kind == Kind::kChaos;
  Report rep;
  std::vector<double> setup, us_per_delivery, wall_us_per_delivery, seeds_per_s, reference;
  UnitResult unit0;
  double heap_bytes = 0;
  const std::int64_t start = now_ns();
  int units = 0;
  for (; units < kHeapUnits || seconds_since(start) < args.seconds; ++units) {
    const Inputs in = make_inputs(w, args.seed, units, args.quick);
    RunOptions opt;
    opt.latencies = units == 0;
    const double ref_before = reference_ms();
    UnitResult r = chaos ? run_campaign(in) : run_on_world(in, opt);
    reference.push_back((ref_before + reference_ms()) / 2);
    if (units < kHeapUnits) heap_bytes += r.peak_heap_bytes / kHeapUnits;
    const double scale = kReferenceMs / reference.back();
    if (chaos && units == 0) {
      // Latencies need the recorders, which run_one keeps to itself: replay
      // the unit on World through the benchmark's copy of run_one and
      // check the copy ran the same executions.
      UnitResult copy = run_on_world(in, opt);
      const std::string diff = first_difference(r.snapshot, copy.snapshot);
      if (!diff.empty() || copy.deliveries != r.deliveries)
        rep.errors.push_back("chaos unit 0: replay differs from chaos::run_one at " + diff);
      r.latencies = std::move(copy.latencies);
      r.fingerprint = copy.fingerprint;
      r.trace_events = copy.trace_events;
      r.sim_events = copy.sim_events;
    }
    wall_us_per_delivery.push_back(ratio(r.run_s * 1e6, static_cast<double>(r.deliveries)));
    us_per_delivery.push_back(wall_us_per_delivery.back() * scale);
    setup.push_back(r.setup_s * scale);
    seeds_per_s.push_back(ratio(static_cast<double>(r.seeds), r.setup_s + r.run_s));
    rep.attempted += chaos ? r.seeds : r.offered;
    rep.failed += chaos ? r.failed_seeds : r.missing;
    for (auto& e : r.errors) rep.errors.push_back("unit " + std::to_string(units) + ": " + e);
    if (units == 0) unit0 = std::move(r);
  }

  std::printf("workload %s  seed %llu  units %d  measured %.2f s\n", w.name,
              static_cast<unsigned long long>(args.seed), units, seconds_since(start));
  rep.add("us_per_delivery", median(us_per_delivery), "us", Tier::kEndToEnd, true);
  rep.add("setup_s", median(setup), "s", Tier::kEndToEnd, true);
  rep.add("peak_heap_mb", heap_bytes / (1 << 20), "MB", Tier::kEndToEnd, false);
  // 1 - failed_frac, which reads 0 when all is well and so has no relative
  // bound.
  rep.add("delivered_frac",
          1 - ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)), "ratio",
          Tier::kEndToEnd, true);
  rep.add("us_per_delivery.wall", median(wall_us_per_delivery), "us", Tier::kInfo, true);
  rep.add("host.reference_ms", median(reference), "ms", Tier::kInfo, true);
  rep.add("host.peak_rss_mb", peak_rss_mb(), "MB", Tier::kInfo, true);
  if (chaos) rep.add("seeds_per_s", median(seeds_per_s), "1/s", Tier::kInfo, true);
  add_latencies(rep, unit0.latencies, Tier::kInfo);
  rep.add("unit0.deliveries", static_cast<double>(unit0.deliveries), "count", Tier::kInfo, false);
  rep.det.emplace_back("unit0.fingerprint", hex(unit0.fingerprint));
  rep.det.emplace_back("unit0.registry", hex(digest(unit0.snapshot)));
  rep.det.emplace_back("unit0.read_hits", std::to_string(unit0.read_hits));
  return rep.print(args, Tier::kEndToEnd, unit0.snapshot);
}

// --- traced run ---------------------------------------------------------------

/// Layers every workload enters (steady and kv_sharded never change views,
/// only kv_sharded has an app layer, only chaos generates schedules).
bool every_workload(Layer l) {
  switch (l) {
    case Layer::kChaosSchedule:
    case Layer::kGprcvExchange:
    case Layer::kNewview:
    case Layer::kAppWrite:
    case Layer::kAppRead:
    case Layer::kAppApply:
      return false;
    default:
      return true;
  }
}

int traced(const Args& args) {
  const Workload& w = *args.workload;
  Report rep;
  Probe probe;
  std::array<LayerCost, kLayers> unit0_costs{};
  UnitResult unit0;
  std::vector<double> seed_ms;
  double ref_s = 0, rig_s = 0, ref_run_s = 0;
  std::uint64_t ref_events = 0, deliveries = 0, views = 0;
  const std::int64_t start = now_ns();
  int units = 0;
  for (; units == 0 || seconds_since(start) < args.seconds; ++units) {
    const Inputs in = make_inputs(w, args.seed, units, args.quick);
    RunOptions opt;
    opt.checkers = true;
    opt.latencies = units == 0;
    UnitResult ref = run_on_world(in, opt);
    UnitResult rig = run_on_rig(in, probe);
    const std::string unit = "unit " + std::to_string(units) + ": ";
    const std::string diff = first_difference(ref.snapshot, rig.snapshot);
    if (!diff.empty()) rep.errors.push_back(unit + "Rig registry differs from World at " + diff);
    if (ref.fingerprint != rig.fingerprint || ref.read_hits != rig.read_hits)
      rep.errors.push_back(unit + "Rig deliveries or reads differ from World");
    for (auto& e : rig.errors) rep.errors.push_back(unit + e);
    seed_ms.insert(seed_ms.end(), ref.seed_ms.begin(), ref.seed_ms.end());
    ref_s += ref.setup_s + ref.run_s;
    rig_s += rig.setup_s + rig.run_s;
    ref_run_s += ref.run_s;
    ref_events += ref.sim_events;
    deliveries += rig.deliveries;
    views += counter(rig.snapshot, "to.views_established");
    rep.attempted += w.kind == Kind::kChaos ? rig.seeds : rig.offered;
    rep.failed += w.kind == Kind::kChaos ? rig.failed_seeds : rig.missing;
    if (units == 0) {
      unit0_costs = probe.costs();
      unit0 = std::move(rig);
      unit0.latencies = std::move(ref.latencies);
    }
  }

  // Virtual-time waits per message phase, from World's own span tracer.
  const auto phases = make_phase_registry();
  RunOptions popt;
  popt.phases = phases.get();
  run_on_world(make_inputs(w, args.seed, 0, args.quick), popt);

  std::printf("workload %s  seed %llu  traced units %d  measured %.2f s\n", w.name,
              static_cast<unsigned long long>(args.seed), units, seconds_since(start));
  const auto& costs = probe.costs();
  auto self_ns = [&](std::initializer_list<Layer> ls) {
    std::int64_t sum = 0;
    for (Layer l : ls) sum += costs[static_cast<std::size_t>(l)].self_ns;
    return static_cast<double>(sum);
  };
  std::int64_t self_sum = 0;
  for (std::size_t i = 0; i < kLayers; ++i) {
    const auto l = static_cast<Layer>(i);
    const std::string name = layer_name(l);
    self_sum += costs[i].self_ns;
    rep.add(name + ".calls", static_cast<double>(unit0_costs[i].calls), "count", Tier::kLayer,
            false);
    // A layer some workloads never enter reads exactly 0 ms there; the
    // JSON carries its share instead, which is not a time.
    rep.add(name + ".self_ms", self_ns({l}) / 1e6 / units, "ms",
            every_workload(l) ? Tier::kLayer : Tier::kInfo, true);
    rep.add(name + ".share_pct", ratio(self_ns({l}), static_cast<double>(probe.root_ns())) * 100,
            "%", Tier::kLayer, true);
  }
  rep.add("vstoto.us_per_delivery",
          ratio(self_ns({Layer::kToBcast, Layer::kGprcvValue, Layer::kGprcvExchange, Layer::kSafe,
                         Layer::kNewview}) / 1e3,
                static_cast<double>(deliveries)),
          "us", Tier::kLayer, true);
  rep.add("vstoto.exchange_us_per_view",
          ratio(self_ns({Layer::kGprcvExchange, Layer::kNewview}) / 1e3, static_cast<double>(views)),
          "us", Tier::kInfo, true);

  const auto& s = unit0.snapshot;
  const double d0 = static_cast<double>(unit0.deliveries);
  for (const char* name : {"to.views_established", "to.primary_established",
                           "ring.formation_rounds", "ring.views_installed", "net.packets_sent"})
    rep.add(name, static_cast<double>(counter(s, name)), "count", Tier::kLayer, false);
  // The program's bare "ring.state_exchange_bytes" counts every token byte;
  // its three sub-counters count only the exchange payloads handed to gpsnd.
  std::uint64_t exchange_bytes = 0;
  for (const char* kind : {"summary", "digest", "delta"})
    exchange_bytes += counter(s, std::string("ring.state_exchange_bytes.") + kind);
  rep.add("ring.state_exchange_bytes", static_cast<double>(exchange_bytes), "B", Tier::kLayer,
          false);
  rep.add("to.order_depth", static_cast<double>(gauge(s, "to.order_depth")), "count",
          Tier::kLayer, false);
  rep.add("sim.events", static_cast<double>(unit0.sim_events), "count", Tier::kLayer, false);
  rep.add("sim.events_per_delivery", ratio(static_cast<double>(unit0.sim_events), d0), "ratio",
          Tier::kLayer, false);
  rep.add("sim.events_per_s", ratio(static_cast<double>(ref_events), ref_run_s), "1/s",
          Tier::kLayer, true);
  rep.add("net.bytes_per_delivery", ratio(static_cast<double>(counter(s, "net.bytes_sent")), d0),
          "B", Tier::kLayer, false);
  const double spliced = static_cast<double>(counter(s, "ring.entries_spliced"));
  rep.add("ring.splice_frac",
          ratio(spliced, spliced + static_cast<double>(counter(s, "ring.entries_rebuilds"))),
          "ratio", Tier::kLayer, false);
  rep.add("ring.deliveries_per_rotation",
          ratio(static_cast<double>(counter(s, "ring.entries_delivered")),
                static_cast<double>(counter(s, "ring.token_rotations"))),
          "ratio", Tier::kLayer, false);
  const double hits = static_cast<double>(counter(s, "to.decode_hits"));
  rep.add("to.decode_hit_frac",
          ratio(hits, hits + static_cast<double>(counter(s, "to.decode_misses"))), "ratio",
          Tier::kLayer, false);
  rep.add("trace.events", static_cast<double>(unit0.trace_events), "count", Tier::kLayer, false);
  rep.add("chaos.seed_ms.p50", nearest_rank(seed_ms, 0.50), "ms", Tier::kLayer, true);
  rep.add("chaos.seed_ms.p95", nearest_rank(seed_ms, 0.95), "ms", Tier::kLayer, true);
  add_latencies(rep, unit0.latencies, Tier::kLayer);
  for (const char* phase : kPhases) {
    const auto* h = phases->find_histogram(std::string("to.phase_latency.") + phase);
    for (const auto& [q, tag] : {std::pair{0.50, ".p50_ms"}, std::pair{0.99, ".p99_ms"}})
      rep.add(std::string("to.phase.") + phase + tag,
              h == nullptr ? 0 : static_cast<double>(h->quantile_upper(q)) / 1e3, "ms_sim",
              Tier::kLayer, false);
  }
  rep.add("trace.overhead_pct", (ratio(rig_s, ref_s) - 1) * 100, "%", Tier::kLayer, true);
  // The traced unit's wall time (set-up + run) against the layers' self
  // times: they differ only by the checker wiring, which no span covers.
  rep.add("trace.unit_ms", rig_s * 1e3 / units, "ms", Tier::kInfo, true);
  rep.add("trace.self_sum_ms", static_cast<double>(self_sum) / 1e6 / units, "ms", Tier::kInfo,
          true);
  rep.det.emplace_back("unit0.fingerprint", hex(unit0.fingerprint));
  rep.det.emplace_back("unit0.registry", hex(digest(unit0.snapshot)));
  rep.det.emplace_back("unit0.read_hits", std::to_string(unit0.read_hits));
  return rep.print(args, Tier::kLayer, unit0.snapshot);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seconds S [--seed N] [--trace 0|1] [--quick] "
                 "[--export PATH]\nworkloads:",
                 argv[0]);
    for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    return args->trace ? traced(*args) : untraced(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vsg_hostbench: %s\n", e.what());
    return 1;
  }
}
