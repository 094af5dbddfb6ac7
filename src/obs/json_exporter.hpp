#pragma once

// Machine-readable metrics snapshots. The exporter writes the
// `vsg-metrics-v1` schema documented in docs/OBSERVABILITY.md:
//
//   {
//     "schema": "vsg-metrics-v1",
//     "label": "<free-form producer label>",
//     "counters":   { "<name>": <u64>, ... },
//     "gauges":     { "<name>": <i64>, ... },
//     "histograms": {
//       "<name>": { "unit": "us_sim" | "us_wall" | "count",
//                   "count": <u64>, "sum": <i64>,
//                   "min": <i64>, "max": <i64>,
//                   "bounds":  [<i64>, ...],
//                   "buckets": [<u64>, ...] }   // bounds.size() + 1 entries
//     }
//   }
//
// `parse` reads the same schema back (it accepts any standard JSON with
// this shape, not only the exporter's exact byte layout), so snapshots
// round-trip and downstream tooling can diff BENCH_*.json files.

#include <optional>
#include <string>

#include "obs/json_util.hpp"
#include "obs/metrics.hpp"

namespace vsg::obs {

class JsonExporter {
 public:
  static std::string to_json(const MetricsSnapshot& snapshot,
                             const std::string& label = "");
  static std::string to_json(const MetricsRegistry& registry,
                             const std::string& label = "") {
    return to_json(registry.snapshot(), label);
  }

  /// Write the registry snapshot to `path`; false on I/O failure.
  static bool write_file(const MetricsRegistry& registry, const std::string& path,
                         const std::string& label = "");

  /// Parse a vsg-metrics-v1 document. nullopt on malformed JSON, wrong
  /// schema tag, or a histogram whose buckets/bounds sizes disagree.
  static std::optional<MetricsSnapshot> parse(const std::string& json);

  /// The label field of a vsg-metrics-v1 document ("" when absent).
  static std::string parse_label(const std::string& json);

  /// Append the `"counters": {...}, "gauges": {...}, "histograms": {...}`
  /// body of a snapshot (no surrounding braces, no trailing comma), with
  /// each top-level key indented by `indent` spaces. to_json and the
  /// vsg-timeseries-v1 writer share this so both schemas encode snapshots
  /// byte-identically.
  static void append_snapshot_body(std::string& out, const MetricsSnapshot& snap,
                                   int indent);

  /// Parse one of the body keys written by append_snapshot_body into
  /// `snap`; the reader must be positioned at the key's value. Returns
  /// false (consuming nothing) when `key` is not a body key. Fails the
  /// reader on malformed histograms (bad unit, buckets/bounds mismatch).
  static bool parse_snapshot_field(json::Reader& r, const std::string& key,
                                   MetricsSnapshot& snap);
};

/// `--export PATH` / `--export=PATH` from a bench's argv; nullopt when the
/// flag is absent. All converted benches share this flag. A bare
/// `--export`, an empty `--export=` or a path starting with `--` (the next
/// flag) is a usage error: a message on stderr and exit status 2.
std::optional<std::string> export_path_from_args(int argc, char** argv);

}  // namespace vsg::obs
