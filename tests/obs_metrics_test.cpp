// The observability primitives: counter/gauge/histogram semantics, the
// registry's get-or-create contract, and the vsg-metrics-v1 JSON
// round-trip (export -> parse gives back an identical snapshot).

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/world.hpp"
#include "obs/json_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"

namespace vsg::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, BumpThroughNullPointerIsANoOp) {
  bump(nullptr);  // layers before bind_metrics: must not crash
  Counter c;
  bump(&c, 3);
  EXPECT_EQ(c.value(), 3u);
}

TEST(Gauge, SetAddAndWatermark) {
  Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.max_of(5);
  EXPECT_EQ(g.value(), 7) << "max_of keeps the larger value";
  g.max_of(12);
  EXPECT_EQ(g.value(), 12);
}

TEST(Histogram, PlacesSamplesInTheRightBuckets) {
  Histogram h({10, 100, 1000}, Unit::kSimMicros);
  h.observe(5);     // <= 10
  h.observe(10);    // inclusive upper bound -> first bucket
  h.observe(11);    // <= 100
  h.observe(1000);  // <= 1000
  h.observe(5000);  // overflow
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 5 + 10 + 11 + 1000 + 5000);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 5000);
}

TEST(Histogram, EmptyExtremesAndQuantileAreZero) {
  Histogram h({10, 100}, Unit::kCount);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.quantile_upper(0.5), 0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, QuantileUpperWalksBuckets) {
  Histogram h({10, 100, 1000}, Unit::kSimMicros);
  for (int i = 0; i < 9; ++i) h.observe(1);  // 9 samples <= 10
  h.observe(500);                            // 1 sample <= 1000
  EXPECT_EQ(h.quantile_upper(0.5), 10);
  EXPECT_EQ(h.quantile_upper(0.9), 10);
  EXPECT_EQ(h.quantile_upper(0.95), 1000);
  // A sample in the overflow bucket reports the exact max.
  h.observe(99999);
  EXPECT_EQ(h.quantile_upper(1.0), 99999);
}

TEST(Registry, GetOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  a.inc();
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  // Creating more metrics must not invalidate earlier references.
  for (int i = 0; i < 100; ++i) reg.counter("c" + std::to_string(i));
  EXPECT_EQ(&reg.counter("x"), &a);
  EXPECT_EQ(a.value(), 1u);
}

TEST(Registry, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
  reg.counter("yes");
  EXPECT_NE(reg.find_counter("yes"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, HistogramKeepsFirstUnitAndBounds) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", Unit::kWallMicros, {1, 2, 3});
  Histogram& again = reg.histogram("lat", Unit::kSimMicros, {99});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.unit(), Unit::kWallMicros);
  EXPECT_EQ(again.bounds(), (std::vector<std::int64_t>{1, 2, 3}));
}

// --- merge_from: the per-World -> campaign registry fold ------------------

TEST(RegistryMerge, CountersGaugesAndHistogramsFold) {
  MetricsRegistry a;
  a.counter("net.packets_sent").inc(10);
  a.gauge("to.order_depth").set(3);
  Histogram& ha = a.histogram("lat", Unit::kSimMicros, {100, 1000});
  ha.observe(50);
  ha.observe(700);

  MetricsRegistry b;
  b.counter("net.packets_sent").inc(5);
  b.counter("ring.token_rotations").inc(2);  // absent in a: created by merge
  b.gauge("to.order_depth").set(4);
  Histogram& hb = b.histogram("lat", Unit::kSimMicros, {100, 1000});
  hb.observe(5000);

  EXPECT_TRUE(a.merge_from(b));
  EXPECT_EQ(a.counter("net.packets_sent").value(), 15u);
  EXPECT_EQ(a.counter("ring.token_rotations").value(), 2u);
  EXPECT_EQ(a.gauge("to.order_depth").value(), 7);  // gauges add
  const Histogram& h = a.histogram("lat");
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 5750);
  EXPECT_EQ(h.min(), 50);
  EXPECT_EQ(h.max(), 5000);
  EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{1, 1, 1}));
}

TEST(RegistryMerge, EmptySourceHistogramLeavesExtremesAlone) {
  MetricsRegistry a;
  a.histogram("lat", Unit::kSimMicros, {10}).observe(5);
  MetricsRegistry b;
  b.histogram("lat", Unit::kSimMicros, {10});  // touched, never observed
  EXPECT_TRUE(a.merge_from(b));
  EXPECT_EQ(a.histogram("lat").count(), 1u);
  EXPECT_EQ(a.histogram("lat").min(), 5);
}

TEST(RegistryMerge, MismatchedHistogramShapeIsRefused) {
  MetricsRegistry a;
  a.histogram("lat", Unit::kSimMicros, {100}).observe(1);
  MetricsRegistry wrong_bounds;
  wrong_bounds.histogram("lat", Unit::kSimMicros, {200}).observe(1);
  MetricsRegistry wrong_unit;
  wrong_unit.histogram("lat", Unit::kWallMicros, {100}).observe(1);

  EXPECT_FALSE(a.merge_from(wrong_bounds));
  EXPECT_FALSE(a.merge_from(wrong_unit));
  // The target series is untouched by the refused merges.
  EXPECT_EQ(a.histogram("lat").count(), 1u);
}

// Seed-order stability: the campaign folds per-World snapshots in seed
// order, and because every merge operation is commutative and associative
// (adds), any fold order gives identical totals — this is what makes
// `--jobs N` metrics bit-identical to `--jobs 1`.
TEST(RegistryMerge, FoldOrderDoesNotChangeTotals) {
  auto make = [](std::uint64_t seed) {
    MetricsRegistry r;
    r.counter("net.packets_sent").inc(seed * 3 + 1);
    r.gauge("watermark").add(static_cast<std::int64_t>(seed));
    r.histogram("lat", Unit::kSimMicros, {100, 1000})
        .observe(static_cast<std::int64_t>(seed * 90));
    return r.snapshot();
  };
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4, 5, 6};

  MetricsRegistry forward;
  for (auto s : seeds) EXPECT_TRUE(forward.merge_from(make(s)));
  MetricsRegistry backward;
  for (auto it = seeds.rbegin(); it != seeds.rend(); ++it)
    EXPECT_TRUE(backward.merge_from(make(*it)));

  EXPECT_EQ(forward.snapshot(), backward.snapshot());
}

// vsg_report --diff: every counter, gauge and histogram count that moved,
// including entries one side lacks, with the wall-clock entries skipped.
TEST(MetricsDiff, ListsEveryMovedEntryAndSkipsWallClockOnes) {
  MetricsRegistry a, b;
  a.counter("net.packets_sent").inc(7);
  b.counter("net.packets_sent").inc(7);
  a.counter("to.payload_copies").inc(54);
  b.counter("to.payload_copies").inc(42);
  a.counter("to.decode_hits").inc(3);
  b.counter("to.added").inc(0);
  a.counter("bench.run_wall").inc(1);
  b.counter("bench.run_wall").inc(2);
  a.gauge("to.order_depth").set(5);
  b.gauge("to.order_depth").set(-1);
  a.histogram("to.brcv_latency.all").observe(10);
  b.histogram("to.brcv_latency.all").observe(10);
  b.histogram("to.brcv_latency.all").observe(20);
  a.histogram("to.phase.net").observe(10);
  b.histogram("to.phase.net").observe(30);  // same count: not listed
  a.histogram("bench.step", Unit::kWallMicros).observe(1);

  EXPECT_EQ(diff_snapshots(a.snapshot(), b.snapshot()),
            (std::vector<std::string>{
                "counter to.added: absent -> 0",
                "counter to.decode_hits: 3 -> absent",
                "counter to.payload_copies: 54 -> 42",
                "gauge to.order_depth: 5 -> -1",
                "histogram count to.brcv_latency.all: 1 -> 2",
            }));
  EXPECT_TRUE(diff_snapshots(a.snapshot(), a.snapshot()).empty());
  EXPECT_TRUE(diff_snapshots(MetricsSnapshot{}, MetricsSnapshot{}).empty());
}

TEST(Exporter, RoundTripsAFullRegistry) {
  MetricsRegistry reg;
  reg.counter("net.packets_sent").inc(123);
  reg.counter("ring.token_rotations").inc(7);
  reg.gauge("to.order_depth").set(-4);
  Histogram& h = reg.histogram("to.brcv_latency.all", Unit::kSimMicros, {100, 1000});
  h.observe(50);
  h.observe(5000);

  const std::string json = JsonExporter::to_json(reg, "round-trip");
  EXPECT_EQ(JsonExporter::parse_label(json), "round-trip");
  const auto parsed = JsonExporter::parse(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, reg.snapshot());
}

TEST(Exporter, EscapesMetricNamesInJson) {
  MetricsRegistry reg;
  // A hostile name exercising every escape class the writer knows.
  const std::string name = "evil\"name\\with\nnewline\ttab\x01" "ctl";
  reg.counter(name).inc(9);
  reg.gauge(name + ".g").set(-1);

  const std::string json = JsonExporter::to_json(reg, "esc \"label\"");
  EXPECT_NE(json.find("evil\\\"name\\\\with\\nnewline\\ttab\\u0001ctl"),
            std::string::npos)
      << "name must be emitted with every character escaped";

  // And the reader undoes exactly what the writer did.
  const auto parsed = JsonExporter::parse(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, reg.snapshot());
  EXPECT_EQ(JsonExporter::parse_label(json), "esc \"label\"");
}

TEST(Exporter, EmptyRegistryExportsValidDocument) {
  MetricsRegistry reg;
  const std::string json = JsonExporter::to_json(reg, "");
  const auto parsed = JsonExporter::parse(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  EXPECT_EQ(*parsed, reg.snapshot());
  EXPECT_TRUE(parsed->counters.empty());
  EXPECT_TRUE(parsed->gauges.empty());
  EXPECT_TRUE(parsed->histograms.empty());
}

TEST(Exporter, RejectsWrongSchemaAndMalformedInput) {
  EXPECT_FALSE(JsonExporter::parse("not json").has_value());
  EXPECT_FALSE(JsonExporter::parse("{\"schema\": \"something-else\"}").has_value());
  // Histogram whose buckets/bounds sizes disagree.
  EXPECT_FALSE(JsonExporter::parse(
                   "{\"schema\":\"vsg-metrics-v1\",\"counters\":{},\"gauges\":{},"
                   "\"histograms\":{\"h\":{\"unit\":\"us_sim\",\"count\":0,\"sum\":0,"
                   "\"min\":0,\"max\":0,\"bounds\":[1,2],\"buckets\":[0,0]}}}")
                   .has_value());
}

TEST(Exporter, ExportPathFromArgs) {
  {
    const char* argv[] = {"bench", "--export", "out.json"};
    const auto p = export_path_from_args(3, const_cast<char**>(argv));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, "out.json");
  }
  {
    const char* argv[] = {"bench", "--export=eq.json"};
    const auto p = export_path_from_args(2, const_cast<char**>(argv));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, "eq.json");
  }
  {
    const char* argv[] = {"bench"};
    EXPECT_FALSE(export_path_from_args(1, const_cast<char**>(argv)).has_value());
  }
}

TEST(ExporterDeathTest, ExportPathWithoutAPathIsAUsageError) {
  const auto exits_2 = ::testing::ExitedWithCode(2);
  {
    const char* argv[] = {"bench", "--jobs", "4", "--export"};
    EXPECT_EXIT(export_path_from_args(4, const_cast<char**>(argv)), exits_2,
                "--export needs a path");
  }
  {
    const char* argv[] = {"bench", "--export", "--jobs", "4"};
    EXPECT_EXIT(export_path_from_args(4, const_cast<char**>(argv)), exits_2,
                "--export needs a path, not the flag --jobs");
  }
  {
    const char* argv[] = {"bench", "--export="};
    EXPECT_EXIT(export_path_from_args(2, const_cast<char**>(argv)), exits_2,
                "--export needs a path");
  }
}

TEST(Stopwatch, ObservesIntoWallHistogram) {
  Histogram h({1000000}, Unit::kWallMicros);
  { ScopedWallTimer t(h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.min(), 0);
}

// A full World run populates the layered metric names the docs promise.
TEST(WorldMetrics, LayersReportIntoTheSharedRegistry) {
  harness::WorldConfig cfg;
  cfg.n = 3;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.seed = 77;
  harness::World world(cfg);
  for (ProcId p = 0; p < 3; ++p) world.bcast_at(sim::msec(100), p, "m");
  world.run_until(sim::sec(2));

  const auto& m = world.metrics();
  for (const char* name :
       {"net.packets_sent", "net.packets_delivered", "net.bytes_sent",
        "ring.token_rotations", "ring.views_installed", "ring.state_exchange_bytes",
        "vs.gpsnd", "vs.gprcv", "vs.safe", "to.labels_assigned", "to.values_sent",
        "to.payload_moves"}) {
    const auto* c = m.find_counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_GT(c->value(), 0u) << name;
  }
  const auto* lat = m.find_histogram("to.brcv_latency.all");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 9u) << "3 values delivered at 3 processors";
  EXPECT_GT(lat->min(), 0);

  // The registry snapshot survives a JSON round trip byte-for-value.
  const auto parsed = JsonExporter::parse(JsonExporter::to_json(m, "world"));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, m.snapshot());
}

// Two worlds can share one registry (the bench sweep pattern).
TEST(WorldMetrics, SharedRegistryAccumulatesAcrossWorlds) {
  auto shared = std::make_shared<MetricsRegistry>();
  std::uint64_t after_first = 0;
  for (int run = 0; run < 2; ++run) {
    harness::WorldConfig cfg;
    cfg.n = 2;
    cfg.backend = harness::Backend::kTokenRing;
    cfg.seed = 5 + static_cast<std::uint64_t>(run);
    cfg.metrics = shared;
    harness::World world(cfg);
    world.bcast_at(sim::msec(50), 0, "x");
    world.run_until(sim::sec(1));
    if (run == 0) after_first = shared->find_counter("net.packets_sent")->value();
  }
  EXPECT_GT(after_first, 0u);
  EXPECT_GT(shared->find_counter("net.packets_sent")->value(), after_first)
      << "second world kept accumulating into the same counters";
}

TEST(WorldConfig, ValidateRejectsBadShapes) {
  harness::WorldConfig cfg;
  cfg.n = 0;
  EXPECT_THROW(harness::World{cfg}, std::invalid_argument);
  cfg.n = -2;
  EXPECT_THROW(harness::World{cfg}, std::invalid_argument);
  cfg.n = 3;
  cfg.n0 = 4;  // more initial members than processors
  EXPECT_THROW(harness::World{cfg}, std::invalid_argument);
  cfg.n0 = 0;
  EXPECT_THROW(harness::World{cfg}, std::invalid_argument);
  cfg.n0 = -1;

  // A quorum system over the wrong universe can never admit a primary.
  auto wrong = std::make_shared<core::ExplicitQuorums>(
      std::vector<std::set<ProcId>>{{3, 4}});
  cfg.quorums = wrong;
  EXPECT_THROW(harness::World{cfg}, std::invalid_argument);
  cfg.quorums = nullptr;

  cfg.backend = harness::Backend::kTokenRing;
  cfg.ring.pi = 0;
  EXPECT_THROW(harness::World{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace vsg::obs
