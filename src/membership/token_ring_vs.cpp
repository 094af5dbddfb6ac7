#include "membership/token_ring_vs.hpp"

#include <cassert>

namespace vsg::membership {

TokenRingVS::TokenRingVS(sim::Simulator& simulator, net::Network& network,
                         sim::FailureTable& failures, trace::Recorder& recorder, int n, int n0,
                         TokenRingConfig config, util::Rng rng)
    : sim_(&simulator),
      endpoint_(network, config.port),
      failures_(&failures),
      recorder_(&recorder),
      config_(config),
      n0_(n0),
      clients_(static_cast<std::size_t>(n), nullptr) {
  assert(n > 0 && n0 > 0 && n0 <= n);
  assert(network.size() == n);
  nodes_.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    nodes_.push_back(std::make_unique<Node>(p, *this, rng.split()));
    endpoint_.attach(p, [this, p](ProcId src, const util::Buffer& pkt) {
      nodes_[static_cast<std::size_t>(p)]->on_packet(src, pkt);
    });
  }
}

void TokenRingVS::start() {
  assert(!started_);
  started_ = true;
  for (ProcId p = 0; p < size(); ++p)
    nodes_[static_cast<std::size_t>(p)]->start(p < n0_, n0_);
}

void TokenRingVS::attach(ProcId p, vs::Client& client) {
  assert(p >= 0 && p < size());
  clients_[static_cast<std::size_t>(p)] = &client;
}

void TokenRingVS::gpsnd(ProcId p, vs::Payload m) {
  assert(p >= 0 && p < size());
  recorder_->record(trace::GpsndEvent{p, m});
  if (obs_.gpsnd != nullptr) obs_.gpsnd->inc();
  // Classify state-exchange payloads by their VSTOTO tag byte — a peek, not
  // a decode, so the membership layer stays ignorant of the payload format.
  if (!m.empty()) {
    switch (m[0]) {
      case wire::kPayloadSummary:
        if (obs_.exch_summary_bytes != nullptr) obs_.exch_summary_bytes->inc(m.size());
        break;
      case wire::kPayloadDigest:
        if (obs_.exch_digest_bytes != nullptr) obs_.exch_digest_bytes->inc(m.size());
        break;
      case wire::kPayloadDelta:
        if (obs_.exch_delta_bytes != nullptr) obs_.exch_delta_bytes->inc(m.size());
        break;
      default:
        break;  // client values are not exchange traffic
    }
  }
  nodes_[static_cast<std::size_t>(p)]->submit(std::move(m));
}

void TokenRingVS::bind_metrics(obs::MetricsRegistry& registry) {
  obs_.proposals = &registry.counter("ring.formation_rounds");
  obs_.views_installed = &registry.counter("ring.views_installed");
  obs_.tokens_processed = &registry.counter("ring.token_rotations");
  obs_.entries_delivered = &registry.counter("ring.entries_delivered");
  obs_.safes_emitted = &registry.counter("ring.safes_emitted");
  obs_.probes_sent = &registry.counter("ring.probes_sent");
  obs_.token_bytes_sent = &registry.counter("ring.state_exchange_bytes");
  obs_.exch_summary_bytes = &registry.counter("ring.state_exchange_bytes.summary");
  obs_.exch_digest_bytes = &registry.counter("ring.state_exchange_bytes.digest");
  obs_.exch_delta_bytes = &registry.counter("ring.state_exchange_bytes.delta");
  obs_.payloads_per_pass = &registry.histogram(
      "ring.payloads_per_pass", obs::Unit::kCount, {0, 1, 2, 4, 8, 16, 32, 64, 128});
  obs_.board_bytes_per_pass = &registry.histogram(
      "ring.board_bytes_per_pass", obs::Unit::kCount,
      {0, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384});
  obs_.max_token_entries = &registry.gauge("ring.max_token_entries");
  obs_.backlog_depth = &registry.gauge("ring.backlog_depth");
  obs_.backlog_peak = &registry.gauge("ring.backlog_peak");
  obs_.gpsnd = &registry.counter("vs.gpsnd");
  obs_.gprcv = &registry.counter("vs.gprcv");
  obs_.safe = &registry.counter("vs.safe");
  obs_.newview = &registry.counter("vs.newview");
}

void TokenRingVS::emit_gprcv(ProcId dst, ProcId src, const util::Buffer& m) {
  recorder_->record(trace::GprcvEvent{src, dst, m});
  if (obs_.gprcv != nullptr) obs_.gprcv->inc();
  auto* client = clients_[static_cast<std::size_t>(dst)];
  if (client != nullptr) client->on_gprcv(src, m);
}

void TokenRingVS::emit_safe(ProcId dst, ProcId src, const util::Buffer& m) {
  recorder_->record(trace::SafeEvent{src, dst, m});
  if (obs_.safe != nullptr) obs_.safe->inc();
  auto* client = clients_[static_cast<std::size_t>(dst)];
  if (client != nullptr) client->on_safe(src, m);
}

void TokenRingVS::emit_newview(ProcId p, const core::View& v) {
  recorder_->record(trace::NewViewEvent{p, v});
  if (obs_.newview != nullptr) obs_.newview->inc();
  auto* client = clients_[static_cast<std::size_t>(p)];
  if (client != nullptr) client->on_newview(v);
}

}  // namespace vsg::membership
