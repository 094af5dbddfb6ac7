#pragma once

// Observability primitives: counters, gauges and fixed-bucket histograms,
// collected in a MetricsRegistry that every layer of an assembled World
// reports into (net packets, ring protocol activity, VStoTO order depth,
// TO-level bcast->brcv latency). The registry is the measurement
// counterpart of the trace::Recorder: the recorder captures *what*
// happened for the safety checkers, the registry captures *how much / how
// fast* for the performance properties (TO-property, Theorem 7.1/7.2) and
// the BENCH_*.json trajectory.
//
// Design notes:
//  - get-or-create by name; references returned by the registry are stable
//    for its lifetime (node-based map), so hot paths cache Counter*/
//    Histogram* once at bind time and pay one pointer increment per event;
//  - histograms carry a time unit (simulated vs wall microseconds) so an
//    exported snapshot is self-describing;
//  - no locking: a registry belongs to one World and each World runs on
//    one thread. Parallel chaos/bench runs give every World its own
//    registry and fold them afterwards with merge_from (deterministic in
//    fold order) — registries are never shared across threads.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vsg::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous level; may go up and down.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_ = v; }
  void add(std::int64_t delta) noexcept { value_ += delta; }
  /// Retain the maximum of the current value and v (watermark gauges).
  void max_of(std::int64_t v) noexcept {
    if (v > value_) value_ = v;
  }
  std::int64_t value() const noexcept { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Increment through a possibly-unbound cached counter pointer (layers
/// keep null pointers until bind_metrics is called).
inline void bump(Counter* c, std::uint64_t delta = 1) noexcept {
  if (c != nullptr) c->inc(delta);
}

/// What a histogram's samples measure. Simulated time and wall-clock time
/// are both microseconds but must never be mixed in one series.
enum class Unit : std::uint8_t { kSimMicros, kWallMicros, kCount };

const char* to_string(Unit u) noexcept;

struct HistogramSnapshot;

/// Fixed-bucket histogram: `bounds` are strictly increasing inclusive
/// upper bounds; one implicit +inf bucket is appended. Also tracks count,
/// sum, min and max exactly.
class Histogram {
 public:
  Histogram(std::vector<std::int64_t> bounds, Unit unit);

  void observe(std::int64_t sample) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  std::int64_t sum() const noexcept { return sum_; }
  /// Exact extremes; 0 when empty.
  std::int64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const noexcept { return count_ == 0 ? 0 : max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  Unit unit() const noexcept { return unit_; }

  const std::vector<std::int64_t>& bounds() const noexcept { return bounds_; }
  /// buckets()[i] counts samples <= bounds()[i]; the last entry (index
  /// bounds().size()) is the overflow (+inf) bucket. Non-cumulative.
  const std::vector<std::uint64_t>& buckets() const noexcept { return buckets_; }

  /// Upper bound of the bucket containing quantile q in (0, 1]; max() when
  /// q lands in the overflow bucket, 0 when empty. A bucketed estimate,
  /// not an exact order statistic.
  std::int64_t quantile_upper(double q) const noexcept;

  /// Add another series of this exact shape (same unit, same bounds):
  /// buckets and count/sum add, min/max combine. False (no change) on a
  /// shape mismatch. Basis of MetricsRegistry::merge_from.
  bool merge(const HistogramSnapshot& other) noexcept;

 private:
  std::vector<std::int64_t> bounds_;
  std::vector<std::uint64_t> buckets_;
  Unit unit_;
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Default latency buckets in microseconds: 250us .. 10s, roughly 1-2-5
/// per decade. Suits both message latencies (~ms) and stabilization times
/// (~100ms..s) under the default TokenRingConfig.
std::vector<std::int64_t> default_latency_buckets();

/// Everything a registry holds, frozen for export. Entries are sorted by
/// name (the registry iterates its ordered maps).
struct HistogramSnapshot {
  std::string name;
  Unit unit = Unit::kSimMicros;
  std::vector<std::int64_t> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 entries
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;

  bool operator==(const HistogramSnapshot&) const = default;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// The wall-clock exclusion list, centralized. True for metrics that
/// measure *this invocation* (elapsed wall time, worker counts) rather than
/// the simulated execution: the trailing dot-component contains "wall"
/// (bench.run_wall, bench.sweep_wall_us, chaos.campaign.wall_us) or is
/// exactly "jobs" (bench.jobs, chaos.campaign.jobs). Every bit-identical
/// fixed-seed comparison — check.sh fingerprints, determinism tests, the
/// vsg-timeseries-v1 export — must exclude exactly this set, so the
/// knowledge lives here instead of ad-hoc in scripts and tests. Prefixed
/// shard series ("shard0.bench.run_wall") classify like their base name.
bool is_wall_metric(const std::string& name);

/// is_wall_metric, strengthened with the series unit: any kWallMicros
/// histogram is wall-clock regardless of its name.
bool is_wall_metric(const std::string& name, Unit unit);

/// Copy of `snap` with every wall-clock entry removed (counters and gauges
/// by name, histograms by name or kWallMicros unit). What the timeline
/// export writes, so fixed-seed timelines are byte-identical across --jobs.
MetricsSnapshot strip_wall_metrics(const MetricsSnapshot& snap);

/// Every counter, gauge and histogram count that differs between two
/// snapshots, wall-clock entries skipped: one line per entry, counters
/// then gauges then histograms, each kind in name order, as
/// "counter NAME: A -> B" with "absent" for a side that lacks the entry.
/// Empty iff the snapshots agree (vsg_report --diff).
std::vector<std::string> diff_snapshots(const MetricsSnapshot& a, const MetricsSnapshot& b);

class MetricsRegistry {
 public:
  /// Get-or-create. Returned references are stable for the registry's
  /// lifetime; hot paths should cache them.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` empty means default_latency_buckets(). If the histogram
  /// already exists, unit/bounds arguments are ignored.
  Histogram& histogram(const std::string& name, Unit unit = Unit::kSimMicros,
                       std::vector<std::int64_t> bounds = {});

  /// Lookup without creating; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  MetricsSnapshot snapshot() const;

  /// Fold another registry's snapshot into this one: counters add, gauges
  /// add, histograms add bucket-wise (created here with the source's
  /// unit/bounds when absent). Merging is commutative and associative over
  /// these operations, so folding per-World registries in a fixed (seed)
  /// order yields the same totals as any other order — and the same totals
  /// one shared registry would have accumulated single-threaded. A
  /// histogram that already exists under the same name with a different
  /// unit or bounds is a series mix-up; its samples are dropped and the
  /// merge reports false (all other entries still merge).
  bool merge_from(const MetricsSnapshot& other);
  bool merge_from(const MetricsRegistry& other) { return merge_from(other.snapshot()); }

  /// merge_from with every incoming name prepended with `prefix` (e.g.
  /// "shard1."). Shard-scoped registries fold into one aggregate registry
  /// twice — once unprefixed (cross-shard totals) and once prefixed
  /// (per-shard view) — and the prefix guarantees shard0.ring.* can never
  /// alias shard1.ring.* or the unprefixed aggregate series.
  bool merge_from(const MetricsSnapshot& other, const std::string& prefix);
  bool merge_from(const MetricsRegistry& other, const std::string& prefix) {
    return merge_from(other.snapshot(), prefix);
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace vsg::obs
