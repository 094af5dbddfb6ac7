#pragma once

// Chaos campaign: many seeded random schedules, each executed with the full
// oracle set attached, failures shrunk to minimal repros.
//
// Per seed: generate_schedule -> World(seed) + OracleSet -> run -> collect
// oracle violations plus the recovery oracle (after the healed quiescence
// tail, every processor must have delivered every broadcast value, in one
// identical order — the conclusion of the paper's TO-property once its
// stabilization premise holds). On failure the ddmin shrinker minimizes
// the schedule; repro_text() serializes it as a self-contained scenario
// file (config n/seed/until + ops) replayable by scenario_parser /
// `chaos_runner --replay`.
//
// Campaign statistics report into an obs::MetricsRegistry (chaos.runs,
// chaos.failures, chaos.violations, chaos.ops.*, chaos.shrink.*) so the
// existing --export JSON path publishes them.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/schedule_gen.hpp"
#include "chaos/shrink.hpp"
#include "harness/world.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace vsg::chaos {

struct CampaignConfig {
  ScheduleConfig schedule;
  harness::Backend backend = harness::Backend::kTokenRing;
  net::LinkModel link;  // campaign default enables ugly-link corruption
  membership::TokenRingConfig ring;
  /// State-exchange protocol (harness::WorldConfig::exchange); the exchange
  /// cross-check runs every seed under both modes.
  vstoto::ExchangeMode exchange = vstoto::ExchangeMode::kDigestDelta;
  /// Independent VStoTO stacks per World (harness::WorldConfig::shards).
  /// Scripted broadcasts route to shards by value hash; every shard gets
  /// its own oracle pair, recovery check, and fingerprint contribution.
  int shards = 1;
  std::uint64_t first_seed = 1;
  int seeds = 50;
  /// Worker threads for the per-seed run phase (exec::run_parallel): <= 1
  /// runs seeds inline, 0 means hardware concurrency. Seeds are
  /// independent Worlds, so any jobs value yields bit-identical verdicts,
  /// delivery fingerprints, and merged metrics (docs/CHAOS.md, "Parallel
  /// execution"); shrinking and reporting stay serialized in seed order.
  int jobs = 1;
  bool check_recovery = true;
  bool shrink = true;
  ShrinkOptions shrink_options;
  /// Optional shared registry; a fresh one is used when null.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Virtual-time telemetry inside every seed's World (off by default).
  /// Sampling only reads registries, so verdicts, delivery fingerprints and
  /// protocol counters stay bit-identical to an unsampled campaign; each
  /// RunResult additionally carries its timeline and health events.
  obs::SamplerConfig sampler;
  /// Treat obs::Health watchdog events as soft-oracle verdicts: every event
  /// becomes a "health: <rule> ..." violation, so a stalled ring or an
  /// unbounded backlog fails the seed, gets ddmin-shrunk (preserving the
  /// set of fired rules) and lands in the repro manifest like any other
  /// failure. Requires sampler.enabled to observe anything.
  bool health_oracle = false;

  CampaignConfig() { link.ugly_corrupt = 0.25; }
};

struct RunResult {
  std::vector<std::string> violations;
  /// Chrome trace-event JSON of the run's flight recorder; empty unless the
  /// run was executed with capture_trace.
  std::string flight_recorder;
  /// Commutative combination of per-delivery fnv1a hashes over (processor,
  /// origin, value): two runs agree iff every processor delivered the same
  /// multiset of values — the equality the exchange cross-check asserts
  /// between full-summary and digest/delta state exchange (chaos_runner
  /// --cross-check). Deliberately order-insensitive: the TO spec admits
  /// many total orders and the two exchange protocols may pick different
  /// ones; within-run order agreement is enforced by the TO oracle.
  std::uint64_t delivery_fingerprint = 0;
  /// Total values delivered across all processors (context for fingerprint
  /// mismatches).
  std::uint64_t delivered_total = 0;
  /// Simulator events the run executed, and the most that were pending at
  /// once. Plain fields, not registry entries, so the registry and the
  /// timelines stay as they were; check.sh pins the campaign's totals.
  std::uint64_t sim_events = 0;
  std::uint64_t sim_peak_pending = 0;
  /// Snapshot of the run's own World registry (net.*, ring.*, to.*, ...).
  /// run_campaign folds these into the campaign registry in seed order via
  /// obs::MetricsRegistry::merge_from, so the exported campaign snapshot
  /// carries the protocol counters regardless of how many jobs ran.
  obs::MetricsSnapshot world_metrics;
  /// The run's vsg-timeseries-v1 document (empty unless cfg.sampler.enabled).
  obs::TimeseriesDoc timeline;
  /// Health watchdog events of the run (subset of timeline.health_events;
  /// empty unless cfg.sampler.enabled). Folded into `violations` as
  /// "health: ..." strings only when cfg.health_oracle.
  std::vector<obs::HealthEvent> health_events;
  bool ok() const { return violations.empty(); }
};

/// Execute one schedule under full oracle attachment. Deterministic in
/// (cfg, scenario, n, seed, run_until, expected_bcasts). expected_bcasts < 0
/// disables the recovery oracle's completeness check (used when replaying
/// hand-written scenarios whose traffic is not known a priori — order
/// agreement across processors is still enforced). With capture_trace the
/// World runs with span tracing on and the result carries the flight
/// recorder's Chrome trace JSON; tracing does not perturb the protocol, so
/// a captured re-run reproduces the uncaptured run exactly.
RunResult run_one(const CampaignConfig& cfg, const harness::Scenario& scenario, int n,
                  std::uint64_t seed, sim::Time run_until, int expected_bcasts,
                  bool capture_trace = false);

struct Failure {
  std::uint64_t seed = 0;
  /// Shard count the campaign ran under; repro_text pins it (`config
  /// shards K`) whenever K > 1 so replays rebuild the same topology.
  int shards = 1;
  /// Per-pass boarding budget the campaign ran under; repro_text pins it
  /// (`config budget B`) whenever B > 0 so a repro found under a capacity
  /// bound replays under the same bound (docs/FLOWCONTROL.md).
  std::uint64_t budget = 0;
  std::vector<std::string> violations;  // of the original schedule
  GeneratedSchedule schedule;           // as generated
  ShrinkOutcome minimal;                // shrunk repro (== original if !shrink)
  /// Chrome trace JSON captured by re-running the minimized scenario with
  /// the flight recorder on at its default obs::TraceConfig::capacity (the
  /// last that many spans before the violation). Dumped next to the repro
  /// scenario by chaos_runner.
  std::string flight_recorder;
  /// Health watchdog verdicts of the original failing run, recorded even
  /// when cfg.health_oracle is off (then they flag the seed in the manifest
  /// without failing it). Empty unless cfg.sampler.enabled.
  std::vector<std::string> health_verdicts;
};

/// Per-seed outcome digest, recorded for every seed (clean or not) in seed
/// order — the evidence the `--jobs 1` vs `--jobs N` equivalence claim is
/// checked against.
struct SeedSummary {
  std::uint64_t seed = 0;
  std::uint64_t delivery_fingerprint = 0;
  std::uint64_t delivered_total = 0;
  std::uint32_t violations = 0;

  bool operator==(const SeedSummary&) const = default;
};

struct CampaignResult {
  int runs = 0;
  std::uint64_t ops = 0;  // total ops scheduled across all runs
  std::vector<Failure> failures;
  /// One entry per seed, in seed order.
  std::vector<SeedSummary> seed_results;
  /// One timeline per seed, in seed order; empty unless cfg.sampler.enabled
  /// (chaos_runner --timeline-out writes these as timeline_seed<S>.json).
  std::vector<obs::TimeseriesDoc> seed_timelines;
  /// Order-sensitive fnv1a fold over seed_results: a single number that
  /// differs iff any seed's verdict count, fingerprint, or delivery total
  /// differs. chaos_runner prints it so two campaign invocations (e.g.
  /// different --jobs) can be compared from their logs alone.
  std::uint64_t campaign_fingerprint = 0;
  /// Sum of every seed's RunResult::sim_events, and the largest
  /// RunResult::sim_peak_pending.
  std::uint64_t sim_events = 0;
  std::uint64_t sim_peak_pending = 0;
  bool ok() const { return failures.empty(); }
};

CampaignResult run_campaign(const CampaignConfig& cfg);

/// Self-contained scenario file for a failure's minimized schedule.
std::string repro_text(const Failure& f);

/// One failure's artifact paths, as recorded in repro_manifest.json.
struct ManifestEntry {
  std::uint64_t seed = 0;
  std::vector<std::string> violations;
  std::string scenario_path;          // minimized .scn repro
  std::string flight_recorder_path;   // Chrome trace dump ("" if none)
  std::string timeline_path;          // vsg-timeseries-v1 dump ("" if none)
  /// Health watchdog verdicts of the failing run ("" entries never occur;
  /// empty when the campaign ran without the sampler/health oracle).
  std::vector<std::string> health_verdicts;

  bool operator==(const ManifestEntry&) const = default;
};

/// The vsg-repro-manifest-v2 document chaos_runner writes into --repro-dir:
/// which artifacts exist for each failure and where, so an operator (or a
/// later tool) never has to guess filenames. v2 adds per-failure "timeline"
/// and "health_events" next to the auto-captured trace.
/// `metrics_export_path` is "" when the campaign ran without --export.
std::string repro_manifest_json(const std::vector<ManifestEntry>& entries,
                                const std::string& metrics_export_path);

/// A parsed vsg-repro-manifest-v2 document.
struct Manifest {
  std::string metrics_export;
  std::vector<ManifestEntry> entries;
};

/// Reader for vsg-repro-manifest-v2; nullopt on malformed JSON or any other
/// schema tag (the pre-timeline v1 tag included).
std::optional<Manifest> parse_repro_manifest(const std::string& json);

}  // namespace vsg::chaos
