#pragma once

// World: one fully assembled system — simulator, failure table, network,
// a VS back end (spec oracle or token ring), the VStoTO stack, and a trace
// recorder — plus convenience scheduling and checking entry points. Every
// test, bench and example builds one of these.

#include <cassert>
#include <memory>
#include <set>
#include <vector>

#include "core/quorum.hpp"
#include "membership/token_ring_vs.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "props/to_property.hpp"
#include "props/vs_property.hpp"
#include "sim/failure_table.hpp"
#include "sim/simulator.hpp"
#include "to/stack.hpp"
#include "trace/recorder.hpp"
#include "verify/derived.hpp"
#include "vs/spec_vs.hpp"

namespace vsg::harness {

enum class Backend {
  kSpec,      // SpecVS: VS-machine + partition oracle (reference)
  kTokenRing  // Section 8 protocol over the simulated network
};

/// Upper bound on WorldConfig::shards. A sanity rail, not a tuning limit:
/// scenario replays and campaign configs reject shard counts beyond it
/// loudly instead of silently building a degenerate World.
inline constexpr int kMaxShards = 64;

struct WorldConfig {
  int n = 3;
  int n0 = -1;  // initial-view size; -1 means n
  Backend backend = Backend::kTokenRing;
  vs::SpecVSConfig spec_vs;
  membership::TokenRingConfig ring;
  /// Number of independent VStoTO stacks (shards) sharing this World's one
  /// simulator, failure table and network. Each shard runs its own token
  /// ring on its own network port (frames never cross shards) and its own
  /// to::Stack; total order exists per shard, never across shards. 1 (the
  /// default) is the classic single-stack World and is bit-identical to the
  /// pre-shard harness on fixed seeds. K > 1 requires the token-ring
  /// backend.
  int shards = 1;
  /// Per-shard ring config overrides; empty means every shard runs `ring`.
  /// Size must equal `shards` when non-empty. The harness assigns each
  /// shard's network port (= shard index) itself, overriding any `port`
  /// set here.
  std::vector<membership::TokenRingConfig> shard_rings;
  /// State-exchange protocol of every shard's to::Stack (docs/WIRE.md,
  /// "State exchange"). The token ring runs the digest/delta exchange by
  /// default; kFullSummary is the paper's Figure 8 exchange, the reference
  /// mode `chaos_runner --cross-check` compares against. The spec backend
  /// always runs kFullSummary (its verifier decodes whole summaries from VS
  /// payloads), whatever this says.
  vstoto::ExchangeMode exchange = vstoto::ExchangeMode::kDigestDelta;
  net::LinkModel link;
  std::uint64_t seed = 1;
  /// Quorum system; defaults to majorities of n.
  std::shared_ptr<const core::QuorumSystem> quorums;
  /// Metrics registry every layer reports into; defaults to a fresh one
  /// per World. Pass a shared registry to accumulate across several runs
  /// (this is how benches build one BENCH_*.json from a parameter sweep).
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Causal span tracing (off by default). When trace.enabled the World
  /// owns an obs::SpanTracer wired into every layer; export the result
  /// with write_chrome_trace(). Tracing never perturbs the protocol: fixed
  /// seeds produce bit-identical traces and counters either way.
  obs::TraceConfig trace;
  /// Virtual-time telemetry (off by default). When sampler.enabled the
  /// World owns an obs::Sampler snapshotting the aggregate registry (and
  /// each shard's, when shards > 1) every sampler.interval, feeding the
  /// obs::Health watchdogs; export with write_timeline(). Sampling only
  /// reads registries — protocol counters stay bit-identical either way.
  obs::SamplerConfig sampler;

  /// Rejects misconfiguration with std::invalid_argument: n <= 0, an
  /// explicit n0 outside [1, n], a quorum system no subset of {0..n-1} can
  /// ever satisfy (wrong universe), or non-positive ring timing
  /// parameters. Called by the World constructor; callers may invoke it
  /// early for a better error site.
  void validate() const;
};

class World {
 public:
  explicit World(WorldConfig config);

  int n() const noexcept { return config_.n; }
  int n0() const noexcept { return config_.n0; }
  /// Number of independent VStoTO stacks in this World (>= 1).
  int shards() const noexcept { return static_cast<int>(shards_.size()); }
  const WorldConfig& config() const noexcept { return config_; }

  sim::Simulator& simulator() noexcept { return sim_; }
  sim::FailureTable& failures() noexcept { return failures_; }
  /// Shard `shard`'s trace recorder. Every shard records its own VS/TO
  /// interface events (plus the shared failure-status inputs), so the
  /// existing single-stack trace checkers apply per shard unchanged.
  trace::Recorder& recorder(int shard = 0) noexcept { return *at(shard).recorder; }
  const trace::Recorder& recorder(int shard = 0) const noexcept { return *at(shard).recorder; }
  /// The registry all layers of this World report into (shared with other
  /// Worlds when WorldConfig::metrics was supplied). With shards > 1 the
  /// per-shard layers report into per-shard registries instead; fold them
  /// in with collect_shard_metrics().
  obs::MetricsRegistry& metrics() noexcept { return *metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return *metrics_; }
  /// The registry shard `shard`'s ring/stack/tracer bind into. Identical to
  /// metrics() when shards() == 1.
  obs::MetricsRegistry& shard_metrics(int shard) noexcept { return *at(shard).metrics; }
  /// Fold every shard-scoped registry into metrics(), once unprefixed
  /// (aggregate totals) and once under "shard<k>." (per-shard view).
  /// Idempotent — call it at quiescence, before exporting or merging this
  /// World's metrics. No-op when shards() == 1 (layers bound directly).
  void collect_shard_metrics();
  net::Network* network() noexcept { return net_.get(); }
  to::Stack& stack(int shard = 0) noexcept { return *at(shard).stack; }
  vs::Service& vs(int shard = 0) noexcept { return *at(shard).vs; }
  /// Non-null iff backend == kSpec.
  const vs::SpecVS* spec_vs() const noexcept { return shards_.front().spec_vs; }
  /// Non-null iff backend == kTokenRing.
  const membership::TokenRingVS* token_ring(int shard = 0) const noexcept {
    return at(shard).ring;
  }
  /// Non-null iff config().trace.enabled: shard `shard`'s span tracer /
  /// flight recorder.
  obs::SpanTracer* tracer(int shard = 0) noexcept { return at(shard).tracer.get(); }
  const obs::SpanTracer* tracer(int shard = 0) const noexcept { return at(shard).tracer.get(); }
  /// All shard tracers (empty when tracing is disabled) — the argument for
  /// the multi-tracer obs::chrome_trace_json overload.
  std::vector<const obs::SpanTracer*> tracers() const;

  /// Export the flight recorder(s) as Chrome trace-event JSON (Perfetto-
  /// loadable, all shards merged); false when tracing is disabled or on I/O
  /// failure.
  bool write_chrome_trace(const std::string& path) const;

  /// Non-null iff config().sampler.enabled.
  obs::Sampler* sampler() noexcept { return sampler_.get(); }
  const obs::Sampler* sampler() const noexcept { return sampler_.get(); }

  /// What the "aggregate" sampler series sees: metrics() with every shard
  /// registry folded in (unprefixed + "shard<k>." prefixed), without
  /// mutating metrics(). After collect_shard_metrics() this is exactly
  /// metrics().snapshot().
  obs::MetricsSnapshot aggregate_snapshot() const;

  /// Take a final sample at now() and write the vsg-timeseries-v1 document
  /// to `path`; false when the sampler is disabled or on I/O failure.
  bool write_timeline(const std::string& path);

  // --- Scheduling helpers -----------------------------------------------------
  // All helpers validate their arguments eagerly (at schedule time, not when
  // the simulator fires the event) and throw std::invalid_argument with a
  // descriptive message, mirroring WorldConfig::validate(). partition_at is
  // strict: components must be non-empty, disjoint, within [0, n), and
  // together cover every processor — an explicit singleton {p} isolates p.
  void bcast_at(sim::Time t, ProcId p, core::Value a);
  /// bcast_at on shard `shard`'s stack (bcast_at == bcast_shard_at(t, 0, ...)).
  void bcast_shard_at(sim::Time t, int shard, ProcId p, core::Value a);
  void partition_at(sim::Time t, std::vector<std::set<ProcId>> components);
  void heal_at(sim::Time t);
  void proc_status_at(sim::Time t, ProcId p, sim::Status status);
  void link_status_at(sim::Time t, ProcId p, ProcId q, sim::Status status);

  /// The strict component-set check behind partition_at, usable standalone
  /// (the chaos schedule generator self-checks with it). Throws
  /// std::invalid_argument describing the first problem found.
  static void validate_partition(int n, const std::vector<std::set<ProcId>>& components);

  void run_until(sim::Time t) { sim_.run_until(t); }

  // --- Checking ----------------------------------------------------------------
  /// TOTraceChecker violations over shard `shard`'s recorded trace.
  std::vector<std::string> check_to_safety(int shard = 0) const;
  /// VSTraceChecker violations over shard `shard`'s recorded trace.
  std::vector<std::string> check_vs_safety(int shard = 0) const;

  /// TO-property and VS-property reports for group Q over shard 0's trace.
  /// Throws std::invalid_argument if a member of Q is not a processor id.
  props::TOPropertyReport to_report(const std::set<ProcId>& q, sim::Time d,
                                    sim::Time ignore_after = sim::kForever) const;
  props::VSPropertyReport vs_report(const std::set<ProcId>& q, sim::Time d,
                                    sim::Time ignore_after = sim::kForever) const;

  /// Global state for the verification layer. Only available with the spec
  /// back end (it owns the VS-machine); asserts otherwise.
  verify::GlobalState global_state() const;

 private:
  /// Everything one shard owns: its recorder, VS backend, stack, the
  /// registry its layers bind into (== metrics_ when shards == 1) and its
  /// tracer. shards_ is declared after net_, so every stack and ring is
  /// destroyed before the network they attach handlers to.
  struct Shard {
    std::unique_ptr<trace::Recorder> recorder;
    std::shared_ptr<obs::MetricsRegistry> metrics;
    std::unique_ptr<vs::Service> vs;
    vs::SpecVS* spec_vs = nullptr;
    membership::TokenRingVS* ring = nullptr;
    std::unique_ptr<to::Stack> stack;
    std::unique_ptr<obs::SpanTracer> tracer;
  };

  Shard& at(int shard) noexcept {
    assert(shard >= 0 && shard < static_cast<int>(shards_.size()));
    return shards_[static_cast<std::size_t>(shard)];
  }
  const Shard& at(int shard) const noexcept {
    assert(shard >= 0 && shard < static_cast<int>(shards_.size()));
    return shards_[static_cast<std::size_t>(shard)];
  }

  WorldConfig config_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  sim::Simulator sim_;
  sim::FailureTable failures_;
  std::unique_ptr<net::Network> net_;
  std::vector<Shard> shards_;
  bool shard_metrics_collected_ = false;
  // Declared last: sampler sources capture shard registries (by shared_ptr)
  // and this->failures_; it only runs inside simulator events, never at
  // destruction.
  std::unique_ptr<obs::Sampler> sampler_;
};

}  // namespace vsg::harness
