#include "obs/json_exporter.hpp"

#include "obs/json_util.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace vsg::obs {

namespace {

using json::append_escaped;
using json::Reader;

template <typename Int>
void append_int(std::string& out, Int v) {
  out += std::to_string(v);
}

std::optional<Unit> unit_from_string(const std::string& s) {
  if (s == "us_sim") return Unit::kSimMicros;
  if (s == "us_wall") return Unit::kWallMicros;
  if (s == "count") return Unit::kCount;
  return std::nullopt;
}

}  // namespace

void JsonExporter::append_snapshot_body(std::string& out, const MetricsSnapshot& snap,
                                        int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad1 = pad + "  ";
  const std::string pad2 = pad1 + "  ";
  out += pad + "\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" + pad1 : ",\n" + pad1;
    first = false;
    append_escaped(out, name);
    out += ": ";
    append_int(out, v);
  }
  out += first ? "},\n" : "\n" + pad + "},\n";
  out += pad + "\"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n" + pad1 : ",\n" + pad1;
    first = false;
    append_escaped(out, name);
    out += ": ";
    append_int(out, v);
  }
  out += first ? "},\n" : "\n" + pad + "},\n";
  out += pad + "\"histograms\": {";
  first = true;
  for (const auto& h : snap.histograms) {
    out += first ? "\n" + pad1 : ",\n" + pad1;
    first = false;
    append_escaped(out, h.name);
    out += ": {\n" + pad2 + "\"unit\": ";
    append_escaped(out, to_string(h.unit));
    out += ",\n" + pad2 + "\"count\": ";
    append_int(out, h.count);
    out += ",\n" + pad2 + "\"sum\": ";
    append_int(out, h.sum);
    out += ",\n" + pad2 + "\"min\": ";
    append_int(out, h.min);
    out += ",\n" + pad2 + "\"max\": ";
    append_int(out, h.max);
    out += ",\n" + pad2 + "\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ", ";
      append_int(out, h.bounds[i]);
    }
    out += "],\n" + pad2 + "\"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out += ", ";
      append_int(out, h.buckets[i]);
    }
    out += "]\n" + pad1 + "}";
  }
  out += first ? "}" : "\n" + pad + "}";
}

std::string JsonExporter::to_json(const MetricsSnapshot& snap, const std::string& label) {
  std::string out;
  out.reserve(1024);
  out += "{\n  \"schema\": \"vsg-metrics-v1\",\n  \"label\": ";
  append_escaped(out, label);
  out += ",\n";
  append_snapshot_body(out, snap, 2);
  out += "\n}\n";
  return out;
}

bool JsonExporter::write_file(const MetricsRegistry& registry, const std::string& path,
                              const std::string& label) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << to_json(registry, label);
  return static_cast<bool>(f);
}

bool JsonExporter::parse_snapshot_field(Reader& r, const std::string& key,
                                        MetricsSnapshot& snap) {
  if (key == "counters") {
    r.object([&](const std::string& name) {
      snap.counters.emplace_back(name, static_cast<std::uint64_t>(r.integer()));
    });
    return true;
  }
  if (key == "gauges") {
    r.object([&](const std::string& name) { snap.gauges.emplace_back(name, r.integer()); });
    return true;
  }
  if (key == "histograms") {
    r.object([&](const std::string& name) {
      HistogramSnapshot h;
      h.name = name;
      bool unit_ok = true;
      r.object([&](const std::string& field) {
        if (field == "unit") {
          const auto u = unit_from_string(r.string());
          if (u)
            h.unit = *u;
          else
            unit_ok = false;
        } else if (field == "count") {
          h.count = static_cast<std::uint64_t>(r.integer());
        } else if (field == "sum") {
          h.sum = r.integer();
        } else if (field == "min") {
          h.min = r.integer();
        } else if (field == "max") {
          h.max = r.integer();
        } else if (field == "bounds") {
          r.array([&] { h.bounds.push_back(r.integer()); });
        } else if (field == "buckets") {
          r.array([&] { h.buckets.push_back(static_cast<std::uint64_t>(r.integer())); });
        } else {
          r.skip_value();
        }
      });
      if (!unit_ok || h.buckets.size() != h.bounds.size() + 1) r.fail();
      snap.histograms.push_back(std::move(h));
    });
    return true;
  }
  return false;
}

std::optional<MetricsSnapshot> JsonExporter::parse(const std::string& json) {
  Reader r(json);
  MetricsSnapshot snap;
  bool schema_ok = false;
  r.object([&](const std::string& key) {
    if (key == "schema") {
      schema_ok = r.string() == "vsg-metrics-v1";
    } else if (!parse_snapshot_field(r, key, snap)) {
      r.skip_value();
    }
  });
  if (!r.ok() || !r.at_end() || !schema_ok) return std::nullopt;
  return snap;
}

std::string JsonExporter::parse_label(const std::string& json) {
  Reader r(json);
  std::string label;
  r.object([&](const std::string& key) {
    if (key == "label")
      label = r.string();
    else
      r.skip_value();
  });
  return r.ok() ? label : "";
}

std::optional<std::string> export_path_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string path;
    if (arg == "--export")
      path = i + 1 < argc ? argv[i + 1] : "";
    else if (arg.rfind("--export=", 0) == 0)
      path = arg.substr(std::strlen("--export="));
    else
      continue;
    if (path.empty() || path.rfind("--", 0) == 0) {
      std::fprintf(stderr, "%s: --export needs a path%s%s\n", argv[0],
                   path.empty() ? "" : ", not the flag ", path.c_str());
      std::exit(2);
    }
    return path;
  }
  return std::nullopt;
}

}  // namespace vsg::obs
