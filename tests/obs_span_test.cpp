// Causal span tracing: the flight recorder's span families over a real
// partition/merge run, the Chrome trace exporter and its validator, the
// bounded-ring drop accounting, and the zero-cost-when-disabled guarantee
// (identical protocol counters with tracing on and off).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "harness/world.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"

namespace vsg::obs {
namespace {

// The acceptance scenario: 5 processors, traffic, a partition into
// {0,1,2} | {3,4}, traffic on both sides, heal, reconciliation tail.
harness::World make_traced_world(bool enabled, std::size_t capacity = 4096) {
  harness::WorldConfig cfg;
  cfg.n = 5;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.seed = 90210;
  cfg.trace.enabled = enabled;
  cfg.trace.capacity = capacity;
  return harness::World(std::move(cfg));
}

void drive_partition_merge(harness::World& world) {
  for (int k = 0; k < 6; ++k)
    world.bcast_at(sim::msec(200) + k * sim::msec(30), static_cast<ProcId>(k % 5),
                   "pre" + std::to_string(k));
  world.partition_at(sim::sec(1), {{0, 1, 2}, {3, 4}});
  for (int k = 0; k < 4; ++k) {
    world.bcast_at(sim::sec(2) + k * sim::msec(40), 0, "maj" + std::to_string(k));
    world.bcast_at(sim::sec(2) + k * sim::msec(40), 3, "min" + std::to_string(k));
  }
  world.heal_at(sim::sec(4));
  world.run_until(sim::sec(10));
}

bool has_span(const std::deque<Span>& spans, const std::string& name) {
  return std::any_of(spans.begin(), spans.end(),
                     [&](const Span& s) { return s.name == name; });
}

TEST(SpanTracer, PartitionMergeRunEmitsBothSpanFamilies) {
  harness::World world = make_traced_world(true);
  drive_partition_merge(world);

  ASSERT_NE(world.tracer(), nullptr);
  const auto& spans = world.tracer()->spans();
  ASSERT_FALSE(spans.empty());

  // Message lifecycle: every phase of the tosnd -> tobrcv chain.
  for (const char* phase : {"label", "gpsnd", "token.board", "net.transit",
                            "tentative", "confirmed", "tobrcv"})
    EXPECT_TRUE(has_span(spans, phase)) << "missing message phase: " << phase;

  // View lifecycle: proposals, state exchange, primary establishment.
  EXPECT_TRUE(has_span(spans, "view.proposal"));
  EXPECT_TRUE(has_span(spans, "view.state_exchange"));
  EXPECT_TRUE(has_span(spans, "view.primary_established"));

  // Fault markers for the partition and the heal.
  EXPECT_TRUE(std::any_of(spans.begin(), spans.end(),
                          [](const Span& s) { return s.cat == "fault"; }));

  // Phase-latency histograms feed the shared registry.
  for (const char* name :
       {"to.phase_latency.label", "to.phase_latency.gpsnd",
        "to.phase_latency.token.board", "to.phase_latency.net.transit",
        "to.phase_latency.tentative", "to.phase_latency.confirmed",
        "to.phase_latency.tobrcv"}) {
    const auto* h = world.metrics().find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count(), 0u) << name;
  }
  // Every emitted span is either still in the ring or counted as dropped.
  const auto* emitted = world.metrics().find_counter("obs.trace.spans");
  const auto* dropped = world.metrics().find_counter("obs.trace.dropped_spans");
  ASSERT_NE(emitted, nullptr);
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(emitted->value(), world.tracer()->spans().size() + dropped->value());
}

TEST(SpanTracer, ChromeTraceExportValidates) {
  harness::World world = make_traced_world(true);
  drive_partition_merge(world);

  const std::string json = chrome_trace_json(*world.tracer());
  const auto problems = validate_chrome_trace(json);
  EXPECT_TRUE(problems.empty()) << problems.front() << " (" << problems.size()
                                << " problems)";

  // One Perfetto "process" per simulated processor.
  for (int p = 0; p < 5; ++p)
    EXPECT_NE(json.find("\"processor " + std::to_string(p) + "\""), std::string::npos);
  // Layer tracks are named.
  for (const char* track : {"\"to\"", "\"view\"", "\"net\""})
    EXPECT_NE(json.find(track), std::string::npos);
}

TEST(SpanTracer, DisabledTracingIsBitIdentical) {
  auto snapshot_without_trace_metrics = [](const harness::World& world) {
    const auto is_trace_metric = [](const std::string& name) {
      return name.rfind("obs.trace.", 0) == 0 || name.rfind("to.phase_latency.", 0) == 0;
    };
    auto snap = world.metrics().snapshot();
    std::erase_if(snap.counters,
                  [&](const auto& kv) { return is_trace_metric(kv.first); });
    std::erase_if(snap.gauges,
                  [&](const auto& kv) { return is_trace_metric(kv.first); });
    std::erase_if(snap.histograms,
                  [&](const auto& h) { return is_trace_metric(h.name); });
    return snap;
  };

  harness::World off = make_traced_world(false);
  drive_partition_merge(off);
  harness::World on = make_traced_world(true);
  drive_partition_merge(on);

  EXPECT_EQ(off.tracer(), nullptr);
  EXPECT_FALSE(off.write_chrome_trace("/dev/null"));
  ASSERT_NE(on.tracer(), nullptr);

  // Same seed, same schedule: the tracer must not perturb the protocol.
  EXPECT_EQ(snapshot_without_trace_metrics(off), snapshot_without_trace_metrics(on));
  EXPECT_EQ(off.recorder().size(), on.recorder().size());
  for (ProcId p = 0; p < 5; ++p)
    EXPECT_EQ(off.stack().process(p).delivered(), on.stack().process(p).delivered());
}

TEST(SpanTracer, FlightRecorderRingIsBoundedAndCountsDrops) {
  // Capacity 4 also bounds the pending chains far below this run's message
  // count; evicting a chain is not dropping a span, so the identity holds.
  for (const std::size_t capacity : {std::size_t{16}, std::size_t{4}}) {
    harness::World world = make_traced_world(true, capacity);
    drive_partition_merge(world);

    const auto* tracer = world.tracer();
    ASSERT_NE(tracer, nullptr);
    EXPECT_LE(tracer->spans().size(), capacity);
    const auto* emitted = world.metrics().find_counter("obs.trace.spans");
    const auto* dropped = world.metrics().find_counter("obs.trace.dropped_spans");
    ASSERT_NE(emitted, nullptr);
    ASSERT_NE(dropped, nullptr);
    EXPECT_GT(dropped->value(), 0u) << "this run emits far more than " << capacity << " spans";
    EXPECT_EQ(emitted->value(), tracer->spans().size() + dropped->value())
        << "capacity " << capacity;

    // The ring keeps the newest spans: the export still validates.
    EXPECT_TRUE(validate_chrome_trace(chrome_trace_json(*tracer)).empty());
  }
}

TEST(Validator, FlagsMalformedJson) {
  EXPECT_FALSE(validate_chrome_trace("not json at all").empty());
  EXPECT_FALSE(validate_chrome_trace("{\"noTraceEvents\": []}").empty());
}

namespace {
std::string wrap(const std::string& events) {
  return "{\"traceEvents\":[" + events + "]}";
}
}  // namespace

TEST(Validator, FlagsEndWithoutBegin) {
  const auto problems = validate_chrome_trace(wrap(
      "{\"name\":\"x\",\"cat\":\"to\",\"ph\":\"e\",\"id\":\"m:1\",\"pid\":0,"
      "\"tid\":1,\"ts\":5}"));
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("end"), std::string::npos);
}

TEST(Validator, FlagsBeginWithoutEnd) {
  const auto problems = validate_chrome_trace(wrap(
      "{\"name\":\"x\",\"cat\":\"to\",\"ph\":\"b\",\"id\":\"m:1\",\"pid\":0,"
      "\"tid\":1,\"ts\":5}"));
  EXPECT_FALSE(problems.empty());
}

TEST(Validator, FlagsBackwardsTimestampsPerTrack) {
  const auto problems = validate_chrome_trace(wrap(
      "{\"name\":\"a\",\"cat\":\"to\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":1,"
      "\"ts\":10},"
      "{\"name\":\"b\",\"cat\":\"to\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":1,"
      "\"ts\":5}"));
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("backward"), std::string::npos);
}

TEST(Validator, FlagsUnknownPhase) {
  const auto problems = validate_chrome_trace(wrap(
      "{\"name\":\"a\",\"cat\":\"to\",\"ph\":\"Q\",\"pid\":0,\"tid\":1,\"ts\":1}"));
  EXPECT_FALSE(problems.empty());
}

TEST(Validator, AcceptsMatchedPairAndMetadata) {
  const auto problems = validate_chrome_trace(wrap(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0},"
      "{\"name\":\"x\",\"cat\":\"to\",\"ph\":\"b\",\"id\":\"m:1\",\"pid\":0,"
      "\"tid\":1,\"ts\":1},"
      "{\"name\":\"x\",\"cat\":\"to\",\"ph\":\"e\",\"id\":\"m:1\",\"pid\":0,"
      "\"tid\":1,\"ts\":4}"));
  EXPECT_TRUE(problems.empty()) << problems.front();
}

}  // namespace
}  // namespace vsg::obs
