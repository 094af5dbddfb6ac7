#pragma once

// The TO stack (Figure 1): one VStoTO process per processor, composed with
// a VS service back end. This is the "TO Service" dashed box of the paper —
// clients see only bcast/brcv (via an attached to::Client per processor, or
// the legacy global callback); everything else is internal.

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/quorum.hpp"
#include "obs/metrics.hpp"
#include "to/service.hpp"
#include "trace/recorder.hpp"
#include "vs/service.hpp"
#include "vstoto/process.hpp"

namespace vsg::to {

class Stack final : public Service {
 public:
  /// Builds and attaches one VStoTO process per processor of `vs_service`.
  /// `n0` is the initial-view size (processors 0..n0-1). `exchange` selects
  /// the state-exchange protocol for every process (see
  /// vstoto::ExchangeMode; harness::WorldConfig::exchange picks it).
  Stack(vs::Service& vs_service, trace::Recorder& recorder,
        std::shared_ptr<const core::QuorumSystem> quorums, int n0,
        vstoto::ExchangeMode exchange = vstoto::ExchangeMode::kFullSummary);

  int size() const override { return static_cast<int>(procs_.size()); }
  void bcast(ProcId p, core::Value a) override;
  bool trysend(ProcId p, core::Value a) override;
  void attach(ProcId p, Client& client) override;
  void set_delivery(DeliveryFn fn) override;

  /// Arm sender-side backpressure (docs/FLOWCONTROL.md): once `backlog(p)`
  /// reaches max_backlog entries, bcast defers (queued FIFO per processor,
  /// admitted by on_ring_drain as the transport frees capacity) and
  /// trysend sheds. Registers the gate metrics — ring.sends_deferred,
  /// ring.sends_shed, and the to.admission_wait histogram (deferral time of
  /// every admitted send; 0 for sends admitted immediately) — in
  /// `registry`, so ungated worlds carry none of them and stay
  /// bit-identical. Wired by harness::World when
  /// TokenRingConfig::admission_max_backlog > 0.
  void arm_admission(std::size_t max_backlog, std::function<std::size_t(ProcId)> backlog,
                     obs::MetricsRegistry& registry);

  /// Transport drain notification: admit deferred sends at p in FIFO order
  /// while the gate has room (the ring's drain hook lands here).
  void on_ring_drain(ProcId p);

  /// Publish TO-level metrics into `registry`: the shared to.* counters and
  /// depth gauges of every VStoTO process, plus bcast->brcv latency
  /// histograms — one per processor ("to.brcv_latency.p<i>") and one
  /// aggregate ("to.brcv_latency.all"). Latency is matched positionally per
  /// origin (TO's per-sender FIFO makes the k-th delivery from an origin
  /// the k-th submission), so for exact histograms submit via this Stack
  /// rather than poking vstoto::Process::bcast directly.
  void bind_metrics(obs::MetricsRegistry& registry);

  /// Attach a causal span tracer to every VStoTO process of the stack
  /// (null detaches). See obs::SpanTracer.
  void set_tracer(obs::SpanTracer* tracer);

  /// Direct access to a VStoTO process (verification layer, tests).
  vstoto::Process& process(ProcId p) { return *procs_[static_cast<std::size_t>(p)]; }
  const vstoto::Process& process(ProcId p) const {
    return *procs_[static_cast<std::size_t>(p)];
  }

 private:
  void on_deliver(ProcId dest, ProcId origin, const core::Value& a);
  /// True when the armed gate must hold a new submission at p: the backlog
  /// is at the limit, or earlier sends are already deferred (FIFO).
  bool gate_holds(ProcId p) const;
  /// Hand a gate-cleared value to the VStoTO process, recording its
  /// admission wait and (when metrics are bound) its bcast timestamp.
  void admit(ProcId p, core::Value a, sim::Time waited);

  trace::Recorder* recorder_;
  std::vector<std::unique_ptr<vstoto::Process>> procs_;
  std::vector<Client*> clients_;
  DeliveryFn delivery_;

  // Latency tracking (active only when metrics are bound).
  obs::Histogram* latency_all_ = nullptr;
  std::vector<obs::Histogram*> latency_per_proc_;        // indexed by dest
  std::vector<std::vector<sim::Time>> bcast_times_;      // per origin, in order
  std::vector<std::vector<std::size_t>> deliver_index_;  // [dest][origin]

  // Admission gate (inactive until arm_admission).
  struct Deferred {
    core::Value value;
    sim::Time since = 0;
  };
  std::size_t admission_max_ = 0;  // 0 = gate off
  std::function<std::size_t(ProcId)> admission_backlog_;
  std::vector<std::deque<Deferred>> deferred_;  // per processor, FIFO
  obs::Counter* sends_deferred_ = nullptr;
  obs::Counter* sends_shed_ = nullptr;
  obs::Histogram* admission_wait_ = nullptr;
};

}  // namespace vsg::to
