#include "to/stack.hpp"

#include <cassert>

namespace vsg::to {

Stack::Stack(vs::Service& vs_service, trace::Recorder& recorder,
             std::shared_ptr<const core::QuorumSystem> quorums, int n0,
             vstoto::ExchangeMode exchange)
    : recorder_(&recorder) {
  const int n = vs_service.size();
  procs_.reserve(static_cast<std::size_t>(n));
  clients_.resize(static_cast<std::size_t>(n), nullptr);
  for (ProcId p = 0; p < n; ++p) {
    auto proc = std::make_unique<vstoto::Process>(p, n0, quorums, vs_service, recorder);
    proc->set_exchange_mode(exchange);
    proc->set_delivery([this, p](ProcId origin, const core::Value& a) {
      on_deliver(p, origin, a);
    });
    vs_service.attach(p, *proc);
    procs_.push_back(std::move(proc));
  }
}

void Stack::bcast(ProcId p, core::Value a) {
  assert(p >= 0 && p < size());
  if (admission_max_ > 0 && gate_holds(p)) {
    // Defer policy: queue FIFO behind the congestion; on_ring_drain admits
    // it once the transport frees capacity (docs/FLOWCONTROL.md).
    deferred_[static_cast<std::size_t>(p)].push_back({std::move(a), recorder_->now()});
    if (sends_deferred_ != nullptr) sends_deferred_->inc();
    return;
  }
  admit(p, std::move(a), 0);
}

bool Stack::trysend(ProcId p, core::Value a) {
  assert(p >= 0 && p < size());
  if (admission_max_ > 0 && gate_holds(p)) {
    // Shed policy: the caller chose losing this sample over queueing it.
    if (sends_shed_ != nullptr) sends_shed_->inc();
    return false;
  }
  admit(p, std::move(a), 0);
  return true;
}

bool Stack::gate_holds(ProcId p) const {
  return !deferred_[static_cast<std::size_t>(p)].empty() ||
         admission_backlog_(p) >= admission_max_;
}

void Stack::admit(ProcId p, core::Value a, sim::Time waited) {
  if (admission_wait_ != nullptr) admission_wait_->observe(waited);
  if (latency_all_ != nullptr)
    bcast_times_[static_cast<std::size_t>(p)].push_back(recorder_->now());
  procs_[static_cast<std::size_t>(p)]->bcast(std::move(a));
}

void Stack::arm_admission(std::size_t max_backlog, std::function<std::size_t(ProcId)> backlog,
                          obs::MetricsRegistry& registry) {
  assert(max_backlog > 0 && backlog != nullptr);
  admission_max_ = max_backlog;
  admission_backlog_ = std::move(backlog);
  deferred_.assign(static_cast<std::size_t>(size()), {});
  sends_deferred_ = &registry.counter("ring.sends_deferred");
  sends_shed_ = &registry.counter("ring.sends_shed");
  admission_wait_ = &registry.histogram("to.admission_wait");
}

void Stack::on_ring_drain(ProcId p) {
  if (admission_max_ == 0) return;
  auto& q = deferred_[static_cast<std::size_t>(p)];
  // Each admission re-submits through the VStoTO process, growing the
  // backlog again — re-check the gate per value so a drain admits exactly
  // as many deferred sends as the freed capacity covers.
  while (!q.empty() && admission_backlog_(p) < admission_max_) {
    Deferred d = std::move(q.front());
    q.pop_front();
    admit(p, std::move(d.value), recorder_->now() - d.since);
  }
}

void Stack::attach(ProcId p, Client& client) {
  assert(p >= 0 && p < size());
  clients_[static_cast<std::size_t>(p)] = &client;
}

void Stack::set_delivery(DeliveryFn fn) { delivery_ = std::move(fn); }

void Stack::bind_metrics(obs::MetricsRegistry& registry) {
  vstoto::ProcessObs obs;
  obs.labels_assigned = &registry.counter("to.labels_assigned");
  obs.values_sent = &registry.counter("to.values_sent");
  obs.summaries_sent = &registry.counter("to.summaries_sent");
  obs.summaries_received = &registry.counter("to.summaries_received");
  obs.digests_sent = &registry.counter("to.digests_sent");
  obs.digests_received = &registry.counter("to.digests_received");
  obs.deltas_sent = &registry.counter("to.deltas_sent");
  obs.deltas_received = &registry.counter("to.deltas_received");
  obs.payload_copies = &registry.counter("to.payload_copies");
  obs.payload_moves = &registry.counter("to.payload_moves");
  obs.order_depth = &registry.gauge("to.order_depth");
  obs.confirmed_depth = &registry.gauge("to.confirmed_depth");
  obs.pending_labels = &registry.gauge("to.pending_labels");
  obs.views_established = &registry.counter("to.views_established");
  obs.primary_established = &registry.counter("to.primary_established");
  for (auto& proc : procs_) proc->bind_metrics(obs);

  latency_all_ = &registry.histogram("to.brcv_latency.all");
  latency_per_proc_.assign(static_cast<std::size_t>(size()), nullptr);
  for (ProcId p = 0; p < size(); ++p)
    latency_per_proc_[static_cast<std::size_t>(p)] =
        &registry.histogram("to.brcv_latency.p" + std::to_string(p));
  bcast_times_.assign(static_cast<std::size_t>(size()), {});
  deliver_index_.assign(static_cast<std::size_t>(size()),
                        std::vector<std::size_t>(static_cast<std::size_t>(size()), 0));
}

void Stack::set_tracer(obs::SpanTracer* tracer) {
  for (auto& proc : procs_) proc->set_tracer(tracer);
}

void Stack::on_deliver(ProcId dest, ProcId origin, const core::Value& a) {
  if (latency_all_ != nullptr) {
    // TO's per-sender FIFO: the k-th delivery at dest from origin is
    // origin's k-th submission; its bcast timestamp gives the latency.
    std::size_t& k = deliver_index_[static_cast<std::size_t>(dest)]
                                   [static_cast<std::size_t>(origin)];
    const auto& times = bcast_times_[static_cast<std::size_t>(origin)];
    if (k < times.size()) {
      const sim::Time lat = recorder_->now() - times[k];
      latency_all_->observe(lat);
      latency_per_proc_[static_cast<std::size_t>(dest)]->observe(lat);
    }
    ++k;
  }
  if (clients_[static_cast<std::size_t>(dest)] != nullptr)
    clients_[static_cast<std::size_t>(dest)]->on_brcv(origin, a);
  if (delivery_) delivery_(dest, origin, a);
}

}  // namespace vsg::to
