#pragma once

// The five benchmark workloads. Each runs in units: one unit is a fixed
// amount of work whose inputs are a pure function of (workload, seed, unit
// index). A run repeats units until its time is up and reports medians
// over them; everything deterministic (counts, virtual-time latencies,
// fingerprints) is taken from unit 0 alone, and the peak heap from a fixed
// number of first units, so it repeats exactly for a given seed however
// fast the host is.
//
// Every workload is open loop: broadcasts and KV writes are scheduled at
// fixed virtual times before the run starts, so a slow host never lowers
// the offered load. Links delay packets by 0.1 to 5 ms (delta = 5 ms), and
// every value is unique ("p<origin>#<k>"), so order agreement is checkable.

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "harness/world.hpp"
#include "obs/metrics.hpp"
#include "probe.hpp"

namespace bench {

enum class Kind { kScripted, kKv, kChaos };

struct Workload {
  const char* name;
  Kind kind;
};

const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// One unit's inputs.
struct Inputs {
  Kind kind = Kind::kScripted;
  vsg::harness::WorldConfig config;
  vsg::sim::Time until = 0;

  // kScripted: broadcasts on shard 0, plus partitions and heals.
  struct Bcast {
    vsg::sim::Time at;
    vsg::ProcId p;
    vsg::core::Value value;
  };
  std::vector<Bcast> bcasts;
  struct Cut {
    vsg::sim::Time at;
    std::vector<std::set<vsg::ProcId>> components;  // empty: heal
  };
  std::vector<Cut> cuts;

  // kKv: writes through app::ShardedKV, each followed by local reads.
  static constexpr int kReadsPerWrite = 4;
  struct Write {
    vsg::sim::Time at;
    vsg::ProcId p;
    std::string key;
    std::string value;
    std::array<std::string, kReadsPerWrite> reads;
  };
  std::vector<Write> writes;

  // kChaos: campaign seeds, each its own World.
  vsg::chaos::CampaignConfig campaign;
  std::vector<std::uint64_t> seeds;
};

/// `quick` shrinks every unit for the smoke test.
Inputs make_inputs(const Workload& w, std::uint64_t seed, int unit, bool quick);

struct UnitResult {
  double setup_s = 0;  // assembly construction + input scheduling (chaos: schedule generation)
  double run_s = 0;    // run_until (chaos: each seed's World from construction to its end;
                       // through chaos::run_one that includes run_one's own checks)
  std::vector<double> seed_ms;  // wall ms per seeded World (one per unit, or per chaos seed)
  // Heap a World held at most during its set-up and run, above the bytes held
  // before it; chaos: the mean over the unit's seeds (not on the traced path).
  double peak_heap_bytes = 0;
  std::uint64_t seeds = 0;
  std::uint64_t failed_seeds = 0;  // chaos: seeds with an oracle violation
  std::uint64_t offered = 0;       // values submitted
  std::uint64_t deliveries = 0;    // TO deliveries summed over processors and shards
  std::uint64_t missing = 0;       // offered values not delivered at every processor
  std::uint64_t sim_events = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t read_hits = 0;     // kv: local reads that found a value (deterministic)
  std::uint64_t fingerprint = 0;   // delivery sequences, order-sensitive
  std::vector<std::string> errors;   // order disagreements, integrity breaks, checker verdicts
  vsg::obs::MetricsSnapshot snapshot;  // wall metrics stripped; summed over chaos seeds
  std::vector<vsg::sim::Time> latencies;  // bcast -> brcv at every receiver, when asked for
};

struct RunOptions {
  bool latencies = false;  // collect bcast -> brcv latencies from the recorders
  bool checkers = false;   // run the TO and VS trace checkers online
  /// When set, the run uses a World with span tracing on and rebinds every
  /// shard tracer's metrics here, so the to.phase_latency.* histograms
  /// pre-created in it (with fine buckets) collect the virtual-time waits.
  vsg::obs::MetricsRegistry* phases = nullptr;
};

/// The unit on harness::World, the program as shipped.
UnitResult run_on_world(const Inputs& in, const RunOptions& opt);
/// The unit on the traced Rig; spans go to `probe`. Checkers always run.
UnitResult run_on_rig(const Inputs& in, Probe& probe);
/// kChaos only: the unit through chaos::generate_schedule + chaos::run_one,
/// the campaign's own code path.
UnitResult run_campaign(const Inputs& in);

/// A registry whose to.phase_latency.* histograms have 0.5% buckets.
std::shared_ptr<vsg::obs::MetricsRegistry> make_phase_registry();
inline constexpr std::array<const char*, 7> kPhases = {
    "label", "gpsnd", "token.board", "net.transit", "tentative", "confirmed", "tobrcv"};

}  // namespace bench
