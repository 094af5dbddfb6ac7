#pragma once

// Text scenario format, so experiments can be described in files and run
// through the CLI tools (examples/scenario_runner, tools/chaos_runner)
// without recompiling:
//
//   # comments and blank lines are ignored
//   config n 5                   # optional world metadata (see ScenarioMeta)
//   config seed 42
//   config until 20s
//   config wire 3                # pin the frame version (docs/WIRE.md)
//   config shards 4              # shard count (docs/SHARDING.md)
//   config budget 256            # boarding budget, bytes/pass (docs/FLOWCONTROL.md)
//   at 100ms partition 0,1,2 | 3,4
//   at 2s    bcast 0 hello-world
//   at 2.5s  proc 2 bad          # good | bad | ugly
//   at 3s    link 0 3 ugly       # directed link (p -> q)
//   at 4s    heal
//
// Times accept us / ms / s suffixes (integer values).
//
// write_scenario() is the exact inverse of parse_scenario(): the chaos
// shrinker serializes minimized repros with it, and the round-trip property
// parse(write(s)) == s is locked in by tests/harness_scenario_roundtrip_test.

#include <cstdint>
#include <optional>
#include <string>

#include "harness/scenario.hpp"

namespace vsg::harness {

/// Optional world parameters embedded in a scenario file via `config`
/// directives, so a minimized chaos repro is self-contained (replayable
/// without remembering the campaign's command line).
struct ScenarioMeta {
  std::optional<int> n;              // config n <int>
  std::optional<std::uint64_t> seed;  // config seed <u64>
  std::optional<sim::Time> until;    // config until <duration>
  /// Frame version the scenario was recorded/minimized under (config wire
  /// <N>, docs/WIRE.md). Replayers refuse a version this build does not
  /// speak: corruption offsets drawn against one layout hit different
  /// fields under another, so such a replay would not be the recorded run.
  std::optional<int> wire;
  /// Shard count the scenario was recorded under (config shards <K>,
  /// docs/SHARDING.md). Replayers must reject counts outside
  /// [1, harness::kMaxShards] loudly rather than silently running K=1.
  std::optional<int> shards;
  /// Per-pass boarding budget in bytes the scenario was recorded under
  /// (config budget <B>, docs/FLOWCONTROL.md). Replays apply it to
  /// TokenRingConfig::board_budget_bytes, as chaos_runner --budget does,
  /// so a repro minimized under a capacity bound replays under the same
  /// bound.
  std::optional<std::uint64_t> budget;
  bool operator==(const ScenarioMeta&) const = default;
};

/// The refusal a replayer prints after the scenario's name and exits on,
/// or "" when this build can honour `meta`'s pins: `config wire` must name
/// the layout it speaks (wire::known_version) and `config shards` lie in
/// [1, kMaxShards].
std::string refuse_pins(const ScenarioMeta& meta);

struct ParseResult {
  std::optional<Scenario> scenario;  // engaged on success
  ScenarioMeta meta;                 // config directives (if any)
  std::string error;                 // human-readable, with line number
  bool ok() const noexcept { return scenario.has_value(); }
};

/// Parse the scenario text (the whole file contents).
ParseResult parse_scenario(const std::string& text);

/// Parse one duration token ("250ms", "3s", "1500us"); nullopt on error.
std::optional<sim::Time> parse_duration(const std::string& token);

/// Shortest exact representation of a non-negative duration ("3s", "250ms",
/// "1500us"). Throws std::invalid_argument on negative input.
std::string format_duration(sim::Time t);

/// Serialize a scenario (plus optional metadata) in the text format above.
/// Throws std::invalid_argument for ops the format cannot represent:
/// negative times, empty partition component lists or components, and bcast
/// values that are empty or contain whitespace / '#' / '|'.
std::string write_scenario(const Scenario& scenario, const ScenarioMeta& meta = {});

}  // namespace vsg::harness
