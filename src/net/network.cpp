#include "net/network.hpp"

#include <cassert>
#include <utility>

#include "obs/span.hpp"

namespace vsg::net {

Network::Network(sim::Simulator& simulator, sim::FailureTable& failures, LinkModel model,
                 util::Rng rng)
    : sim_(&simulator), failures_(&failures), model_(model), rng_(rng) {
  handlers_.emplace_back(static_cast<std::size_t>(failures.size()));
}

void Network::attach(Port port, ProcId p, Handler handler) {
  assert(port >= 0);
  assert(p >= 0 && p < size());
  if (static_cast<std::size_t>(port) >= handlers_.size())
    handlers_.resize(static_cast<std::size_t>(port) + 1,
                     std::vector<Handler>(static_cast<std::size_t>(size())));
  handlers_[static_cast<std::size_t>(port)][static_cast<std::size_t>(p)] = std::move(handler);
}

void Network::set_tracer(Port port, obs::SpanTracer* tracer) noexcept {
  assert(port >= 0);
  if (static_cast<std::size_t>(port) >= tracers_.size())
    tracers_.resize(static_cast<std::size_t>(port) + 1, nullptr);
  tracers_[static_cast<std::size_t>(port)] = tracer;
}

void Network::bind_metrics(obs::MetricsRegistry& registry) {
  obs_.packets_sent = &registry.counter("net.packets_sent");
  obs_.packets_delivered = &registry.counter("net.packets_delivered");
  obs_.packets_dropped = &registry.counter("net.packets_dropped");
  obs_.packets_corrupted = &registry.counter("net.packets_corrupted");
  obs_.bytes_sent = &registry.counter("net.bytes_sent");
  obs_.bytes_delivered = &registry.counter("net.bytes_delivered");
  obs_.bytes_copied = &registry.counter("net.bytes_copied");
  obs_.buffer_allocs = &registry.counter("net.buffer_allocs");
  obs_.buffer_shares = &registry.counter("net.buffer_shares");
}

void Network::send(ProcId p, ProcId q, util::Buffer packet, Port port) {
  obs::bump(obs_.buffer_allocs);
  send_one(p, q, std::move(packet), port);
}

void Network::send_one(ProcId p, ProcId q, util::Buffer packet, Port port) {
  assert(p >= 0 && p < size() && q >= 0 && q < size());
  obs::bump(obs_.packets_sent);
  obs::bump(obs_.bytes_sent, packet.size());

  if (p == q) {
    if (auto* tr = tracer_for(port)) tr->packet_sent(p, q, packet.id(), sim_->now());
    sim_->after(model_.min_delay, [this, p, q, port, pkt = std::move(packet)]() mutable {
      deliver(p, q, std::move(pkt), port);
    });
    return;
  }

  const sim::Status status = failures_->link(p, q);
  const auto fate = model_.decide(status, rng_);
  if (!fate) {
    obs::bump(obs_.packets_dropped);
    return;
  }
  // Ugly links may also corrupt what they deliver. Copy-on-corrupt: the
  // flipped bytes go into a private buffer for this destination only; the
  // shared storage other destinations hold stays pristine.
  if (status == sim::Status::kUgly && !packet.empty() &&
      rng_.chance(model_.ugly_corrupt)) {
    util::Bytes mut = packet.to_bytes();
    const std::size_t flips = 1 + rng_.below(3);
    for (std::size_t i = 0; i < flips; ++i)
      mut[rng_.below(mut.size())] ^= static_cast<std::uint8_t>(1 + rng_.below(255));
    obs::bump(obs_.packets_corrupted);
    obs::bump(obs_.bytes_copied, mut.size());
    obs::bump(obs_.buffer_allocs);
    packet = util::Buffer(std::move(mut));
  }
  // Span hook after copy-on-corrupt so the uid matches what deliver() sees.
  if (auto* tr = tracer_for(port)) tr->packet_sent(p, q, packet.id(), sim_->now());
  sim_->after(*fate, [this, p, q, port, pkt = std::move(packet)]() mutable {
    deliver(p, q, std::move(pkt), port);
  });
}

void Network::deliver(ProcId src, ProcId dst, util::Buffer packet, Port port) {
  // A link that went bad while the packet was in flight loses it.
  if (src != dst && failures_->link(src, dst) == sim::Status::kBad) {
    obs::bump(obs_.packets_dropped);
    return;
  }
  obs::bump(obs_.packets_delivered);
  obs::bump(obs_.bytes_delivered, packet.size());
  if (auto* tr = tracer_for(port)) tr->packet_delivered(src, dst, packet.id(), sim_->now());
  if (static_cast<std::size_t>(port) >= handlers_.size()) return;
  auto& handler = handlers_[static_cast<std::size_t>(port)][static_cast<std::size_t>(dst)];
  if (handler) handler(src, packet);
}

void Network::multicast(ProcId p, const std::vector<ProcId>& dests, const util::Buffer& packet,
                        Port port) {
  obs::bump(obs_.buffer_allocs);
  bool first = true;
  for (ProcId q : dests) {
    if (!first) obs::bump(obs_.buffer_shares);
    first = false;
    send_one(p, q, packet, port);  // refcount bump, not a payload copy
  }
}

void Network::broadcast(ProcId p, const util::Buffer& packet, Port port) {
  obs::bump(obs_.buffer_allocs);
  bool first = true;
  for (ProcId q = 0; q < size(); ++q) {
    if (q == p) continue;
    if (!first) obs::bump(obs_.buffer_shares);
    first = false;
    send_one(p, q, packet, port);
  }
}

}  // namespace vsg::net
