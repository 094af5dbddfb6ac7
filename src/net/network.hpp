#pragma once

// Simulated asynchronous point-to-point network.
//
// Packets are opaque immutable byte buffers (everything above serializes),
// routed between processors subject to the FailureTable:
//  - the ordered-pair link status is consulted at send time (bad => drop,
//    good => delay in [min_delay, delta], ugly => RNG drop/delay), and again
//    at delivery time (a link that has become bad in flight drops the
//    packet, matching "while bad, no packet is delivered");
//  - processor status is NOT interpreted here; stopping/slowing a processor
//    is the receiving executor's job (bad processors take no steps).
//
// Zero-copy data plane (docs/DATAPLANE.md): a multicast/broadcast shares one
// util::Buffer across all destinations — fan-out costs refcount bumps, not
// payload copies. The only physical copy the network ever makes is
// copy-on-corrupt: an ugly link that flips bits materializes a private copy
// for that destination so the shared storage stays immutable. The
// bytes_copied / buffer_allocs / buffer_shares counters make this visible.

#include <cstdint>
#include <functional>
#include <vector>

#include "net/link_model.hpp"
#include "obs/metrics.hpp"
#include "sim/failure_table.hpp"
#include "sim/simulator.hpp"
#include "util/buffer.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace vsg::obs {
class SpanTracer;
}

namespace vsg::net {

/// Logical port on the shared substrate. Each protocol stack instance
/// (shard) claims one port; traffic is routed by (port, destination), so a
/// frame sent on one port can never reach — let alone cross-decode in —
/// another port's stack. Port 0 is the default and is what every
/// single-stack caller uses implicitly.
using Port = int;

class Network {
 public:
  /// Handler invoked at the destination when a packet arrives. The Buffer is
  /// shared — keep slices, not copies.
  using Handler = std::function<void(ProcId src, const util::Buffer& packet)>;

  Network(sim::Simulator& simulator, sim::FailureTable& failures, LinkModel model,
          util::Rng rng);

  int size() const noexcept { return failures_->size(); }

  /// Register the receive handler for processor p (one per processor and
  /// port). The two-arg form attaches on port 0.
  void attach(ProcId p, Handler handler) { attach(0, p, std::move(handler)); }
  void attach(Port port, ProcId p, Handler handler);

  /// Send one packet from p to q. Self-sends are delivered with min delay
  /// regardless of failure status (local loopback never partitions).
  void send(ProcId p, ProcId q, util::Buffer packet, Port port = 0);

  /// Send the same packet from p to every processor in `dests`: one shared
  /// buffer, zero payload copies regardless of fan-out.
  void multicast(ProcId p, const std::vector<ProcId>& dests, const util::Buffer& packet,
                 Port port = 0);

  /// Send from p to all n processors except p (shared buffer, as above).
  void broadcast(ProcId p, const util::Buffer& packet, Port port = 0);

  const LinkModel& model() const noexcept { return model_; }

  /// Publish packet/byte counters into `registry` (names: net.*). Counter
  /// references are cached, so binding costs nothing on the send path.
  /// The registry is the only count: an unbound Network counts nothing.
  void bind_metrics(obs::MetricsRegistry& registry);

  /// Attach a causal span tracer (null detaches): every delivered packet
  /// becomes a net.packet transit span. The tracer never touches the RNG or
  /// the schedule, so traced and untraced runs stay bit-identical. The
  /// one-arg form serves port 0; multi-shard Worlds attach one tracer per
  /// port so each shard's packet spans land in its own trace.
  void set_tracer(obs::SpanTracer* tracer) noexcept { set_tracer(0, tracer); }
  void set_tracer(Port port, obs::SpanTracer* tracer) noexcept;

 private:
  void send_one(ProcId p, ProcId q, util::Buffer packet, Port port);
  void deliver(ProcId src, ProcId dst, util::Buffer packet, Port port);
  obs::SpanTracer* tracer_for(Port port) const noexcept {
    const auto i = static_cast<std::size_t>(port);
    return i < tracers_.size() ? tracers_[i] : nullptr;
  }

  struct Obs {
    obs::Counter* packets_sent = nullptr;
    obs::Counter* packets_delivered = nullptr;
    obs::Counter* packets_dropped = nullptr;
    obs::Counter* packets_corrupted = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* bytes_delivered = nullptr;
    // Zero-copy accounting.
    obs::Counter* bytes_copied = nullptr;   // payload bytes physically copied
    obs::Counter* buffer_allocs = nullptr;  // logical packet buffers entering the plane
    obs::Counter* buffer_shares = nullptr;  // extra zero-copy references (fan-out)
  };

  sim::Simulator* sim_;
  sim::FailureTable* failures_;
  LinkModel model_;
  util::Rng rng_;
  /// handlers_[port][proc]; ports are created lazily by attach().
  std::vector<std::vector<Handler>> handlers_;
  Obs obs_;
  /// tracers_[port]; grown lazily by set_tracer().
  std::vector<obs::SpanTracer*> tracers_;
};

/// A port-scoped view of the shared Network. Mirrors the Network send/attach
/// surface minus the port parameter, so a protocol stack written against one
/// "network" compiles unchanged whether it owns the substrate (port 0) or is
/// one shard among K. Copyable, non-owning.
class Endpoint {
 public:
  Endpoint(Network& network, Port port) : net_(&network), port_(port) {}

  int size() const noexcept { return net_->size(); }
  Port port() const noexcept { return port_; }
  Network& underlying() noexcept { return *net_; }

  void attach(ProcId p, Network::Handler handler) {
    net_->attach(port_, p, std::move(handler));
  }
  void send(ProcId p, ProcId q, util::Buffer packet) {
    net_->send(p, q, std::move(packet), port_);
  }
  void multicast(ProcId p, const std::vector<ProcId>& dests, const util::Buffer& packet) {
    net_->multicast(p, dests, packet, port_);
  }
  void broadcast(ProcId p, const util::Buffer& packet) { net_->broadcast(p, packet, port_); }

  const LinkModel& model() const noexcept { return net_->model(); }

 private:
  Network* net_;
  Port port_;
};

}  // namespace vsg::net
