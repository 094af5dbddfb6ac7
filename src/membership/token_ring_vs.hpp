#pragma once

// TokenRingVS: the vs::Service facade over the Section 8 protocol — n Node
// state machines wired to the simulated network. Interface events are
// recorded exactly like SpecVS records them, so the same trace checkers and
// property checkers validate this implementation against the VS
// specification (safety: VSTraceChecker; performance: VS-property with
// b = 9*delta + max{pi + (n+3)*delta, mu} and d as discussed in
// membership.hpp).

#include <functional>
#include <memory>
#include <vector>

#include "membership/membership.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/failure_table.hpp"
#include "sim/simulator.hpp"
#include "trace/recorder.hpp"
#include "vs/service.hpp"

namespace vsg::obs {
class SpanTracer;
}

namespace vsg::membership {

/// Shared counters the ring reports into when metrics are bound (names:
/// ring.* and vs.*). All pointers null until bind_metrics; Node checks one
/// pointer per event. The registry is the ring's only count: read it with
/// MetricsRegistry::find_counter / find_gauge.
struct RingObs {
  obs::Counter* proposals = nullptr;         // view-formation rounds initiated
  obs::Counter* views_installed = nullptr;   // newview installations (all nodes)
  obs::Counter* tokens_processed = nullptr;  // token rotations through a node
  obs::Counter* entries_delivered = nullptr;
  obs::Counter* safes_emitted = nullptr;
  obs::Counter* probes_sent = nullptr;
  // Every forwarded token byte, client values included (the name is
  // historical); the exchange's own cost is the exch_*_bytes split below.
  obs::Counter* token_bytes_sent = nullptr;
  // Exchange payload census at gpsnd, classified by the VSTOTO tag byte
  // without decoding (wire::kPayload*): whole-summary vs digest vs delta
  // bytes submitted to the VS layer. The PR 6 acceptance compares the sum
  // of these across full-summary and delta worlds.
  obs::Counter* exch_summary_bytes = nullptr;
  obs::Counter* exch_digest_bytes = nullptr;
  obs::Counter* exch_delta_bytes = nullptr;
  obs::Histogram* payloads_per_pass = nullptr;  // client payloads boarded per token pass
  obs::Histogram* board_bytes_per_pass = nullptr;  // payload bytes boarded per token pass
  obs::Gauge* max_token_entries = nullptr;   // watermark across all tokens
  // Send-backlog census across all members: entries sitting in outboxes
  // waiting to board a token. Level + watermark; the pair the flow-control
  // roadmap item plots against offered load.
  obs::Gauge* backlog_depth = nullptr;
  obs::Gauge* backlog_peak = nullptr;
  obs::Counter* gpsnd = nullptr;             // VS interface events
  obs::Counter* gprcv = nullptr;
  obs::Counter* safe = nullptr;
  obs::Counter* newview = nullptr;
};

class TokenRingVS final : public vs::Service {
 public:
  TokenRingVS(sim::Simulator& simulator, net::Network& network, sim::FailureTable& failures,
              trace::Recorder& recorder, int n, int n0, TokenRingConfig config, util::Rng rng);

  /// Arm every node's timers; call once before running the simulation.
  void start();

  // clients_ is fully sized in the member-initializer list, so size() is
  // valid even while nodes_ is still being populated (nodes consult it in
  // their constructors).
  int size() const override { return static_cast<int>(clients_.size()); }
  void attach(ProcId p, vs::Client& client) override;
  void gpsnd(ProcId p, vs::Payload m) override;

  const Node& node(ProcId p) const { return *nodes_[static_cast<std::size_t>(p)]; }

  /// Boarding backlog (payloads waiting to board a token) at processor p —
  /// the admission gate's depth signal (docs/FLOWCONTROL.md).
  std::size_t backlog(ProcId p) const { return nodes_[static_cast<std::size_t>(p)]->backlog(); }

  /// Hook fired with the processor id whenever that node's backlog shrank
  /// (a boarding pass, or a view install clearing stale entries). The
  /// harness wires it to to::Stack::on_ring_drain so deferred sends behind
  /// the admission gate re-enter as capacity frees (docs/FLOWCONTROL.md).
  void set_drain_hook(std::function<void(ProcId)> hook) { drain_hook_ = std::move(hook); }
  void notify_drained(ProcId p) {
    if (drain_hook_) drain_hook_(p);
  }

  /// Publish ring protocol counters into `registry` (names: ring.*, vs.*).
  void bind_metrics(obs::MetricsRegistry& registry);
  RingObs& obs() noexcept { return obs_; }

  /// Attach a causal span tracer (null detaches); nodes consult tracer()
  /// for view-formation and token-boarding spans.
  void set_tracer(obs::SpanTracer* tracer) noexcept { tracer_ = tracer; }
  obs::SpanTracer* tracer() const noexcept { return tracer_; }

  // --- services for Node ------------------------------------------------------
  sim::Simulator& simulator() noexcept { return *sim_; }
  /// The ring's port-scoped view of the shared network (port =
  /// TokenRingConfig::port). Nodes send through this, so every frame stays
  /// on the ring's own port.
  net::Endpoint& network() noexcept { return endpoint_; }
  sim::FailureTable& failures() noexcept { return *failures_; }
  const TokenRingConfig& config() const noexcept { return config_; }

  void emit_gprcv(ProcId dst, ProcId src, const util::Buffer& m);
  void emit_safe(ProcId dst, ProcId src, const util::Buffer& m);
  void emit_newview(ProcId p, const core::View& v);

 private:
  sim::Simulator* sim_;
  net::Endpoint endpoint_;
  sim::FailureTable* failures_;
  trace::Recorder* recorder_;
  TokenRingConfig config_;
  int n0_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<vs::Client*> clients_;
  bool started_ = false;
  RingObs obs_;
  obs::SpanTracer* tracer_ = nullptr;
  std::function<void(ProcId)> drain_hook_;
};

}  // namespace vsg::membership
