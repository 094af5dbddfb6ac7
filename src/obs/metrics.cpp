#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <set>

namespace vsg::obs {

const char* to_string(Unit u) noexcept {
  switch (u) {
    case Unit::kSimMicros:
      return "us_sim";
    case Unit::kWallMicros:
      return "us_wall";
    case Unit::kCount:
      return "count";
  }
  return "?";
}

Histogram::Histogram(std::vector<std::int64_t> bounds, Unit unit)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0), unit_(unit) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()) &&
         std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end() &&
         "histogram bounds must be strictly increasing");
}

void Histogram::observe(std::int64_t sample) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), sample);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  sum_ += sample;
}

std::int64_t Histogram::quantile_upper(double q) const noexcept {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-quantile sample, 1-based ceiling.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.9999999999));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) return i < bounds_.size() ? bounds_[i] : max();
  }
  return max();
}

bool Histogram::merge(const HistogramSnapshot& other) noexcept {
  if (other.unit != unit_ || other.bounds != bounds_ ||
      other.buckets.size() != buckets_.size())
    return false;
  if (other.count == 0) return true;
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets[i];
  if (count_ == 0) {
    min_ = other.min;
    max_ = other.max;
  } else {
    min_ = std::min(min_, other.min);
    max_ = std::max(max_, other.max);
  }
  count_ += other.count;
  sum_ += other.sum;
  return true;
}

std::vector<std::int64_t> default_latency_buckets() {
  // Microseconds; 1-2-5-ish ladder from 250us to 10s.
  return {250,     500,     1000,    2000,    5000,    10000,   20000,
          50000,   100000,  200000,  500000,  1000000, 2000000, 5000000,
          10000000};
}

bool is_wall_metric(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  const std::size_t tail = dot == std::string::npos ? 0 : dot + 1;
  if (name.compare(tail, std::string::npos, "jobs") == 0) return true;
  return name.find("wall", tail) != std::string::npos;
}

bool is_wall_metric(const std::string& name, Unit unit) {
  return unit == Unit::kWallMicros || is_wall_metric(name);
}

MetricsSnapshot strip_wall_metrics(const MetricsSnapshot& snap) {
  MetricsSnapshot out;
  for (const auto& e : snap.counters)
    if (!is_wall_metric(e.first)) out.counters.push_back(e);
  for (const auto& e : snap.gauges)
    if (!is_wall_metric(e.first)) out.gauges.push_back(e);
  for (const auto& h : snap.histograms)
    if (!is_wall_metric(h.name, h.unit)) out.histograms.push_back(h);
  return out;
}

namespace {

template <typename V>
void diff_entries(const std::string& kind, const std::map<std::string, V>& a,
                  const std::map<std::string, V>& b, std::vector<std::string>& out) {
  std::set<std::string> names;
  for (const auto& [name, v] : a) names.insert(name);
  for (const auto& [name, v] : b) names.insert(name);
  const auto show = [](const std::map<std::string, V>& m, const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? std::string("absent") : std::to_string(it->second);
  };
  for (const auto& name : names) {
    const std::string x = show(a, name), y = show(b, name);
    if (x != y) out.push_back(kind + " " + name + ": " + x + " -> " + y);
  }
}

template <typename V>
std::map<std::string, V> by_name(const std::vector<std::pair<std::string, V>>& entries) {
  return {entries.begin(), entries.end()};
}

std::map<std::string, std::uint64_t> histogram_counts(const MetricsSnapshot& s) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& h : s.histograms) out.emplace(h.name, h.count);
  return out;
}

}  // namespace

std::vector<std::string> diff_snapshots(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  const MetricsSnapshot x = strip_wall_metrics(a), y = strip_wall_metrics(b);
  std::vector<std::string> out;
  diff_entries("counter", by_name(x.counters), by_name(y.counters), out);
  diff_entries("gauge", by_name(x.gauges), by_name(y.gauges), out);
  diff_entries("histogram count", histogram_counts(x), histogram_counts(y), out);
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) { return counters_[name]; }

Gauge& MetricsRegistry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& MetricsRegistry::histogram(const std::string& name, Unit unit,
                                      std::vector<std::int64_t> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  if (bounds.empty()) bounds = default_latency_buckets();
  return histograms_.emplace(name, Histogram(std::move(bounds), unit)).first->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

bool MetricsRegistry::merge_from(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counter(name).inc(v);
  for (const auto& [name, v] : other.gauges) gauge(name).add(v);
  bool ok = true;
  for (const auto& hs : other.histograms) {
    // Create absent series with the source's exact shape (not via
    // histogram(), whose empty-bounds default would mis-shape a
    // deliberately boundless series).
    auto it = histograms_.find(hs.name);
    if (it == histograms_.end())
      it = histograms_.emplace(hs.name, Histogram(hs.bounds, hs.unit)).first;
    ok = it->second.merge(hs) && ok;
  }
  return ok;
}

bool MetricsRegistry::merge_from(const MetricsSnapshot& other, const std::string& prefix) {
  if (prefix.empty()) return merge_from(other);
  MetricsSnapshot renamed = other;
  for (auto& [name, v] : renamed.counters) name.insert(0, prefix);
  for (auto& [name, v] : renamed.gauges) name.insert(0, prefix);
  for (auto& hs : renamed.histograms) hs.name.insert(0, prefix);
  return merge_from(renamed);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c.value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g.value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.unit = h.unit();
    hs.bounds = h.bounds();
    hs.buckets = h.buckets();
    hs.count = h.count();
    hs.sum = h.sum();
    hs.min = h.min();
    hs.max = h.max();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

}  // namespace vsg::obs
