// vsg_report — render vsg-metrics-v1 and vsg-timeseries-v1 exports as
// terminal text or a self-contained HTML page (docs/OBSERVABILITY.md).
//
//   $ ./vsg_report BENCH_E6.json                    # percentile tables
//   $ ./vsg_report timeline.json                    # per-series timelines
//   $ ./vsg_report --validate /tmp/tl/*.json        # schema check, exit 0/1
//   $ ./vsg_report --fingerprint timeline.json      # canonical fnv1a, hex
//   $ ./vsg_report --check-final EXPORT.json timeline.json
//   $ ./vsg_report --diff A.json B.json             # what moved, exit 0/1
//   $ ./vsg_report --html report.html timeline.json BENCH_E6.json
//
// File kind is auto-detected from the schema tag. `--metric NAME` adds a
// series to the timeline plots (default: token rotation rate, backlog
// depths, pending labels). `--check-final` asserts the timeline's final
// "aggregate" sample equals the end-of-run registry export modulo the
// wall-clock exclusions (obs::is_wall_metric) and export-only extras —
// the acceptance contract between World::write_timeline and --export.
// `--diff` prints every counter, gauge and histogram count that differs
// between two vsg-metrics-v1 exports, including entries only one side has,
// and skips the wall-clock ones; it exits 1 when anything differs.
//
// Exit status: 0 clean, 1 validation/check failure or a difference, 2
// usage/IO errors.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/health.hpp"
#include "obs/json_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

using namespace vsg;

namespace {

struct Options {
  bool validate = false;
  bool fingerprint = false;
  bool diff = false;
  std::string check_final;  // vsg-metrics-v1 export to compare against
  std::string html_out;
  std::vector<std::string> metrics;  // extra timeline plot series
  std::vector<std::string> files;
};

/// One input file, parsed as whichever schema its tag declares.
struct Doc {
  std::string path;
  std::optional<obs::TimeseriesDoc> timeseries;
  std::optional<obs::MetricsSnapshot> snapshot;  // vsg-metrics-v1
  std::string label;                             // metrics-v1 label field
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--validate") {
      opt.validate = true;
    } else if (arg == "--fingerprint") {
      opt.fingerprint = true;
    } else if (arg == "--diff") {
      opt.diff = true;
    } else if (arg == "--check-final") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.check_final = v;
    } else if (arg == "--html") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.html_out = v;
    } else if (arg == "--metric") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.metrics.push_back(v);
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else {
      opt.files.push_back(arg);
    }
  }
  return !opt.files.empty();
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::optional<Doc> load(const std::string& path) {
  const auto text = slurp(path);
  if (!text.has_value()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  Doc doc;
  doc.path = path;
  doc.timeseries = obs::parse_timeseries(*text);
  if (!doc.timeseries.has_value()) {
    doc.snapshot = obs::JsonExporter::parse(*text);
    if (doc.snapshot.has_value()) doc.label = obs::JsonExporter::parse_label(*text);
  }
  if (!doc.timeseries.has_value() && !doc.snapshot.has_value()) {
    std::fprintf(stderr,
                 "%s: neither a vsg-timeseries-v1 nor a vsg-metrics-v1 document\n",
                 path.c_str());
    return std::nullopt;
  }
  return doc;
}

// --- snapshot lookups (entries are sorted by name) -------------------------

const std::uint64_t* find_counter(const obs::MetricsSnapshot& s, const std::string& n) {
  const auto it = std::lower_bound(
      s.counters.begin(), s.counters.end(), n,
      [](const auto& e, const std::string& name) { return e.first < name; });
  return it != s.counters.end() && it->first == n ? &it->second : nullptr;
}

const std::int64_t* find_gauge(const obs::MetricsSnapshot& s, const std::string& n) {
  const auto it = std::lower_bound(
      s.gauges.begin(), s.gauges.end(), n,
      [](const auto& e, const std::string& name) { return e.first < name; });
  return it != s.gauges.end() && it->first == n ? &it->second : nullptr;
}

const obs::HistogramSnapshot* find_histogram(const obs::MetricsSnapshot& s,
                                             const std::string& n) {
  const auto it = std::lower_bound(
      s.histograms.begin(), s.histograms.end(), n,
      [](const auto& h, const std::string& name) { return h.name < name; });
  return it != s.histograms.end() && it->name == n ? &*it : nullptr;
}

/// Upper bound of the bucket containing quantile q (same bucketed estimate
/// as Histogram::quantile_upper, but over an exported snapshot).
std::int64_t quantile_upper(const obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0;
  const auto target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(h.count)));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    cum += h.buckets[i];
    if (cum >= target && cum > 0)
      return i < h.bounds.size() ? h.bounds[i] : h.max;
  }
  return h.max;
}

// --- timeline extraction ---------------------------------------------------

/// Series names in order of first appearance ("aggregate" first by
/// construction of the sampler's source list).
std::vector<std::string> series_names(const obs::TimeseriesDoc& doc) {
  std::vector<std::string> out;
  for (const auto& s : doc.samples)
    if (std::find(out.begin(), out.end(), s.series) == out.end())
      out.push_back(s.series);
  return out;
}

struct Track {
  std::string metric;  // display name ("Δ" prefix for counter rates)
  std::vector<sim::Time> at;
  std::vector<double> value;
};

/// Default plots: token rotation rate plus the two backlog gauges the
/// backlog_growth watchdog watches. --metric adds raw counters/gauges.
std::vector<Track> extract_tracks(const obs::TimeseriesDoc& doc,
                                  const std::string& series,
                                  const std::vector<std::string>& extra) {
  std::vector<std::string> wanted{"ring.token_rotations", "ring.backlog_depth",
                                  "to.pending_labels"};
  for (const auto& m : extra)
    if (std::find(wanted.begin(), wanted.end(), m) == wanted.end()) wanted.push_back(m);

  std::vector<Track> tracks;
  for (const auto& name : wanted) {
    Track t;
    bool is_counter = false, present = false;
    double prev = 0;
    for (const auto& s : doc.samples) {
      if (s.series != series) continue;
      double v = 0;
      if (const auto* c = find_counter(s.metrics, name)) {
        is_counter = true;
        present = true;
        v = static_cast<double>(*c);
      } else if (const auto* g = find_gauge(s.metrics, name)) {
        present = true;
        v = static_cast<double>(*g);
      }
      // Counters plot as per-window deltas (a rate), gauges as levels.
      t.at.push_back(s.at);
      t.value.push_back(is_counter && !t.value.empty() ? v - prev : v);
      if (is_counter) prev = v;
    }
    if (!present) continue;
    if (is_counter && !t.value.empty()) t.value.front() = 0;  // no pre-window base
    t.metric = is_counter ? "Δ" + name : name;
    tracks.push_back(std::move(t));
  }
  return tracks;
}

std::string sparkline(const std::vector<double>& values, std::size_t width = 60) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  double lo = values.front(), hi = values.front();
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  const std::size_t n = values.size();
  const std::size_t cols = std::min(width, n);
  for (std::size_t c = 0; c < cols; ++c) {
    // Max-pool each column so narrow spikes survive downsampling.
    const std::size_t a = c * n / cols, b = std::max(a + 1, (c + 1) * n / cols);
    double v = values[a];
    for (std::size_t i = a; i < b; ++i) v = std::max(v, values[i]);
    const int idx =
        hi > lo ? static_cast<int>((v - lo) / (hi - lo) * 7.0 + 0.5) : 0;
    out += kBlocks[std::clamp(idx, 0, 7)];
  }
  return out;
}

std::string fmt_us(sim::Time t) {
  char buf[32];
  if (t % 1000000 == 0)
    std::snprintf(buf, sizeof buf, "%llds", static_cast<long long>(t / 1000000));
  else if (t % 1000 == 0)
    std::snprintf(buf, sizeof buf, "%lldms", static_cast<long long>(t / 1000));
  else
    std::snprintf(buf, sizeof buf, "%lldus", static_cast<long long>(t));
  return buf;
}

// --- text rendering --------------------------------------------------------

void print_percentiles(const obs::MetricsSnapshot& snap, const char* indent) {
  bool any = false;
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;
    if (!any)
      std::printf("%s%-34s %10s %8s %10s %10s %10s %10s\n", indent, "histogram", "unit",
                  "count", "p50", "p90", "p99", "max");
    any = true;
    std::printf("%s%-34s %10s %8llu %10lld %10lld %10lld %10lld\n", indent,
                h.name.c_str(), obs::to_string(h.unit),
                static_cast<unsigned long long>(h.count),
                static_cast<long long>(quantile_upper(h, 0.50)),
                static_cast<long long>(quantile_upper(h, 0.90)),
                static_cast<long long>(quantile_upper(h, 0.99)),
                static_cast<long long>(h.max));
  }
  if (!any) std::printf("%s(no histogram samples)\n", indent);
}

/// Flow-control flag next to the health log: shed sends are silent data
/// loss the caller opted into (to::Service::trysend), so a nonzero
/// ring.sends_shed deserves the same prominence as a watchdog event
/// (docs/FLOWCONTROL.md).
void print_shed_flag(const obs::MetricsSnapshot& snap) {
  const auto* shed = find_counter(snap, "ring.sends_shed");
  if (shed != nullptr && *shed > 0)
    std::printf("flow control: %llu send%s SHED at the admission gate "
                "(ring.sends_shed > 0, docs/FLOWCONTROL.md)\n",
                static_cast<unsigned long long>(*shed), *shed == 1 ? "" : "s");
}

void print_health_events(const std::vector<obs::HealthEvent>& events) {
  if (events.empty()) {
    std::printf("health events: none\n");
    return;
  }
  std::printf("health events (%zu):\n", events.size());
  for (const auto& e : events)
    std::printf("  %-10s %-16s [%s] %s\n", fmt_us(e.at).c_str(), e.rule.c_str(),
                e.series.c_str(), e.detail.c_str());
}

void report_timeseries(const Doc& doc, const Options& opt) {
  const auto& ts = *doc.timeseries;
  const auto series = series_names(ts);
  std::printf("%s: vsg-timeseries-v1, interval %s, %zu samples, %zu series, "
              "%llu dropped\n",
              doc.path.c_str(), fmt_us(ts.interval).c_str(), ts.samples.size(),
              series.size(), static_cast<unsigned long long>(ts.dropped));
  for (const auto& name : series) {
    sim::Time first = 0, last = 0;
    std::size_t count = 0;
    const obs::MetricsSnapshot* final_snap = nullptr;
    for (const auto& s : ts.samples) {
      if (s.series != name) continue;
      if (count == 0) first = s.at;
      last = s.at;
      final_snap = &s.metrics;
      ++count;
    }
    std::printf("\nseries %s (%zu samples, %s..%s)\n", name.c_str(), count,
                fmt_us(first).c_str(), fmt_us(last).c_str());
    for (const auto& t : extract_tracks(ts, name, opt.metrics)) {
      double peak = t.value.empty() ? 0 : t.value.front();
      for (double v : t.value) peak = std::max(peak, v);
      // Pad by display width, not bytes (the Δ rate prefix is multi-byte).
      const std::size_t width = t.metric.size() - (t.metric[0] == '\xce' ? 1 : 0);
      std::string label = t.metric;
      if (width < 24) label.append(24 - width, ' ');
      std::printf("  %s %s  last %.0f  peak %.0f\n", label.c_str(),
                  sparkline(t.value).c_str(),
                  t.value.empty() ? 0.0 : t.value.back(), peak);
    }
    if (final_snap != nullptr) print_percentiles(*final_snap, "  ");
  }
  std::printf("\n");
  print_health_events(ts.health_events);
  // The lead series ("aggregate" by sampler construction) carries the
  // cross-shard totals the shed flag should reflect.
  const obs::MetricsSnapshot* lead_final = nullptr;
  if (!series.empty())
    for (const auto& s : ts.samples)
      if (s.series == series.front()) lead_final = &s.metrics;
  if (lead_final != nullptr) print_shed_flag(*lead_final);
}

void report_snapshot(const Doc& doc) {
  const auto& snap = *doc.snapshot;
  std::printf("%s: vsg-metrics-v1%s%s — %zu counters, %zu gauges, %zu histograms\n",
              doc.path.c_str(), doc.label.empty() ? "" : ", label ",
              doc.label.c_str(), snap.counters.size(), snap.gauges.size(),
              snap.histograms.size());
  print_percentiles(snap, "  ");
  print_shed_flag(snap);
}

// --- HTML rendering --------------------------------------------------------

std::string html_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '&')
      out += "&amp;";
    else if (c == '<')
      out += "&lt;";
    else if (c == '>')
      out += "&gt;";
    else
      out += c;
  }
  return out;
}

void html_svg(std::string& out, const Track& t) {
  const int w = 640, h = 80, pad = 4;
  double lo = 0, hi = 1;
  if (!t.value.empty()) {
    lo = hi = t.value.front();
    for (double v : t.value) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi == lo) hi = lo + 1;
  }
  out += "<div class=\"track\"><span class=\"m\">" + html_escape(t.metric) +
         "</span><svg viewBox=\"0 0 " + std::to_string(w) + " " + std::to_string(h) +
         "\" width=\"" + std::to_string(w) + "\" height=\"" + std::to_string(h) +
         "\"><polyline fill=\"none\" stroke=\"#2563eb\" stroke-width=\"1.5\" points=\"";
  const std::size_t n = t.value.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double x =
        pad + (n > 1 ? static_cast<double>(i) / static_cast<double>(n - 1) : 0.0) *
                  (w - 2 * pad);
    const double y = h - pad - (t.value[i] - lo) / (hi - lo) * (h - 2 * pad);
    char pt[48];
    std::snprintf(pt, sizeof pt, "%.1f,%.1f ", x, y);
    out += pt;
  }
  char range[96];
  std::snprintf(range, sizeof range, "%.0f..%.0f", lo, hi);
  out += "\"/></svg><span class=\"r\">" + std::string(range) + "</span></div>\n";
}

void html_percentiles(std::string& out, const obs::MetricsSnapshot& snap) {
  bool any = false;
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;
    if (!any)
      out += "<table><tr><th>histogram</th><th>unit</th><th>count</th><th>p50</th>"
             "<th>p90</th><th>p99</th><th>max</th></tr>\n";
    any = true;
    out += "<tr><td>" + html_escape(h.name) + "</td><td>" + obs::to_string(h.unit) +
           "</td><td>" + std::to_string(h.count) + "</td><td>" +
           std::to_string(quantile_upper(h, 0.50)) + "</td><td>" +
           std::to_string(quantile_upper(h, 0.90)) + "</td><td>" +
           std::to_string(quantile_upper(h, 0.99)) + "</td><td>" +
           std::to_string(h.max) + "</td></tr>\n";
  }
  out += any ? "</table>\n" : "<p>(no histogram samples)</p>\n";
}

std::string html_report(const std::vector<Doc>& docs, const Options& opt) {
  std::string out =
      "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
      "<title>vsg report</title>\n<style>\n"
      "body{font:14px/1.5 system-ui,sans-serif;margin:2em;color:#111}\n"
      "h1{font-size:1.3em}h2{font-size:1.1em;border-bottom:1px solid #ddd}\n"
      "h3{font-size:1em;color:#444}\n"
      ".track{display:flex;align-items:center;gap:.75em;margin:.25em 0}\n"
      ".track .m{width:16em;font-family:monospace;font-size:12px}\n"
      ".track .r{color:#666;font-size:12px}\n"
      "table{border-collapse:collapse;margin:.5em 0}\n"
      "td,th{border:1px solid #ccc;padding:.2em .6em;font-size:13px;"
      "text-align:right}\ntd:first-child,th:first-child{text-align:left;"
      "font-family:monospace}\n"
      ".health{background:#fef2f2;border:1px solid #fca5a5;padding:.5em 1em}\n"
      "</style></head><body>\n<h1>vsg report</h1>\n";
  for (const auto& doc : docs) {
    out += "<h2>" + html_escape(doc.path) + "</h2>\n";
    if (doc.timeseries.has_value()) {
      const auto& ts = *doc.timeseries;
      out += "<p>vsg-timeseries-v1 — interval " + fmt_us(ts.interval) + ", " +
             std::to_string(ts.samples.size()) + " samples, " +
             std::to_string(ts.dropped) + " dropped</p>\n";
      for (const auto& name : series_names(ts)) {
        out += "<h3>series " + html_escape(name) + "</h3>\n";
        for (const auto& t : extract_tracks(ts, name, opt.metrics)) html_svg(out, t);
        const obs::MetricsSnapshot* final_snap = nullptr;
        for (const auto& s : ts.samples)
          if (s.series == name) final_snap = &s.metrics;
        if (final_snap != nullptr) html_percentiles(out, *final_snap);
      }
      if (ts.health_events.empty()) {
        out += "<p>health events: none</p>\n";
      } else {
        out += "<div class=\"health\"><b>health events (" +
               std::to_string(ts.health_events.size()) + ")</b><ul>\n";
        for (const auto& e : ts.health_events)
          out += "<li>" + fmt_us(e.at) + " <b>" + html_escape(e.rule) + "</b> [" +
                 html_escape(e.series) + "] " + html_escape(e.detail) + "</li>\n";
        out += "</ul></div>\n";
      }
      const obs::MetricsSnapshot* lead_final = nullptr;
      for (const auto& s : ts.samples)
        if (!ts.samples.empty() && s.series == series_names(ts).front())
          lead_final = &s.metrics;
      if (lead_final != nullptr) {
        const auto* shed = find_counter(*lead_final, "ring.sends_shed");
        if (shed != nullptr && *shed > 0)
          out += "<div class=\"health\"><b>flow control:</b> " + std::to_string(*shed) +
                 " sends SHED at the admission gate (ring.sends_shed &gt; 0, "
                 "docs/FLOWCONTROL.md)</div>\n";
      }
    } else {
      out += "<p>vsg-metrics-v1" +
             (doc.label.empty() ? std::string() : ", label " + html_escape(doc.label)) +
             " — " + std::to_string(doc.snapshot->counters.size()) + " counters, " +
             std::to_string(doc.snapshot->gauges.size()) + " gauges</p>\n";
      html_percentiles(out, *doc.snapshot);
    }
  }
  out += "</body></html>\n";
  return out;
}

// --- modes -----------------------------------------------------------------

int validate(const Options& opt) {
  int bad = 0;
  for (const auto& path : opt.files) {
    const auto doc = load(path);
    if (!doc.has_value()) {
      ++bad;
      continue;
    }
    if (doc->timeseries.has_value()) {
      const auto& ts = *doc->timeseries;
      std::printf("%s: vsg-timeseries-v1 OK (%zu samples, %zu series, %zu health "
                  "events)\n",
                  path.c_str(), ts.samples.size(), series_names(ts).size(),
                  ts.health_events.size());
    } else {
      std::printf("%s: vsg-metrics-v1 OK (%zu counters, %zu gauges, %zu histograms)\n",
                  path.c_str(), doc->snapshot->counters.size(),
                  doc->snapshot->gauges.size(), doc->snapshot->histograms.size());
    }
  }
  return bad == 0 ? 0 : 1;
}

int fingerprint(const Options& opt) {
  int bad = 0;
  for (const auto& path : opt.files) {
    const auto doc = load(path);
    if (!doc.has_value() || !doc->timeseries.has_value()) {
      if (doc.has_value())
        std::fprintf(stderr, "%s: --fingerprint needs a vsg-timeseries-v1 file\n",
                     path.c_str());
      ++bad;
      continue;
    }
    std::printf("%016llx  %s\n",
                static_cast<unsigned long long>(
                    obs::timeseries_fingerprint(*doc->timeseries)),
                path.c_str());
  }
  return bad == 0 ? 0 : 2;
}

/// The write_timeline contract: the final "aggregate" sample must equal the
/// end-of-run registry export, modulo wall exclusions (stripped from both
/// sides) and export-only extras (e.g. a bench CLI's own bench.* gauges).
int check_final(const Options& opt) {
  if (opt.files.size() != 1) {
    std::fprintf(stderr, "--check-final takes exactly one timeline file\n");
    return 2;
  }
  const auto timeline = load(opt.files.front());
  if (!timeline.has_value() || !timeline->timeseries.has_value()) {
    std::fprintf(stderr, "%s: not a vsg-timeseries-v1 file\n", opt.files.front().c_str());
    return 2;
  }
  const auto export_doc = load(opt.check_final);
  if (!export_doc.has_value() || !export_doc->snapshot.has_value()) {
    std::fprintf(stderr, "%s: not a vsg-metrics-v1 file\n", opt.check_final.c_str());
    return 2;
  }
  const obs::MetricsSnapshot exported = obs::strip_wall_metrics(*export_doc->snapshot);
  const obs::MetricsSnapshot* final_sample = nullptr;
  for (const auto& s : timeline->timeseries->samples)
    if (s.series == "aggregate") final_sample = &s.metrics;
  if (final_sample == nullptr) {
    std::fprintf(stderr, "%s: no \"aggregate\" samples\n", opt.files.front().c_str());
    return 1;
  }
  int mismatches = 0;
  for (const auto& [name, v] : final_sample->counters) {
    const auto* e = find_counter(exported, name);
    if (e == nullptr || *e != v) {
      ++mismatches;
      std::printf("counter %s: final sample %llu, export %s\n", name.c_str(),
                  static_cast<unsigned long long>(v),
                  e == nullptr ? "absent" : std::to_string(*e).c_str());
    }
  }
  for (const auto& [name, v] : final_sample->gauges) {
    const auto* e = find_gauge(exported, name);
    if (e == nullptr || *e != v) {
      ++mismatches;
      std::printf("gauge %s: final sample %lld, export %s\n", name.c_str(),
                  static_cast<long long>(v),
                  e == nullptr ? "absent" : std::to_string(*e).c_str());
    }
  }
  for (const auto& h : final_sample->histograms) {
    const auto* e = find_histogram(exported, h.name);
    if (e == nullptr || !(h == *e)) {
      ++mismatches;
      std::printf("histogram %s: final sample %s export\n", h.name.c_str(),
                  e == nullptr ? "absent from" : "differs from");
    }
  }
  if (mismatches > 0) {
    std::printf("FAIL: %d final-sample entr%s disagree with %s\n", mismatches,
                mismatches == 1 ? "y" : "ies", opt.check_final.c_str());
    return 1;
  }
  std::printf("OK: final aggregate sample (%zu counters, %zu gauges, %zu histograms) "
              "matches %s\n",
              final_sample->counters.size(), final_sample->gauges.size(),
              final_sample->histograms.size(), opt.check_final.c_str());
  return 0;
}

int diff(const Options& opt) {
  if (opt.files.size() != 2) {
    std::fprintf(stderr, "--diff takes exactly two vsg-metrics-v1 files\n");
    return 2;
  }
  std::vector<obs::MetricsSnapshot> snaps;
  for (const auto& path : opt.files) {
    const auto doc = load(path);
    if (!doc.has_value()) return 2;
    if (!doc->snapshot.has_value()) {
      std::fprintf(stderr, "%s: not a vsg-metrics-v1 file\n", path.c_str());
      return 2;
    }
    snaps.push_back(*doc->snapshot);
  }
  const auto lines = obs::diff_snapshots(snaps[0], snaps[1]);
  for (const auto& line : lines) std::printf("%s\n", line.c_str());
  if (lines.empty()) {
    std::printf("exports match (wall-clock metrics skipped)\n");
    return 0;
  }
  std::printf("%zu entr%s\n", lines.size(), lines.size() == 1 ? "y differs" : "ies differ");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s [--validate | --fingerprint | --check-final EXPORT.json]\n"
                 "          [--html PATH] [--metric NAME]... FILE...\n"
                 "       %s --diff A.json B.json\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (opt.diff) return diff(opt);
  if (opt.validate) return validate(opt);
  if (opt.fingerprint) return fingerprint(opt);
  if (!opt.check_final.empty()) return check_final(opt);

  std::vector<Doc> docs;
  for (const auto& path : opt.files) {
    auto doc = load(path);
    if (!doc.has_value()) return 2;
    docs.push_back(std::move(*doc));
  }
  bool first = true;
  for (const auto& doc : docs) {
    if (!first) std::printf("\n");
    first = false;
    if (doc.timeseries.has_value())
      report_timeseries(doc, opt);
    else
      report_snapshot(doc);
  }
  if (!opt.html_out.empty()) {
    std::ofstream out(opt.html_out);
    out << html_report(docs, opt);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.html_out.c_str());
      return 2;
    }
    std::printf("\nHTML report written to %s\n", opt.html_out.c_str());
  }
  return 0;
}
