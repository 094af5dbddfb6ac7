#include "rig.hpp"

#include <stdexcept>
#include <string>

#include "vstoto/wire.hpp"

namespace bench {

using namespace vsg;

VsSeam::VsSeam(vs::Service& inner, Probe& probe)
    : inner_(&inner), probe_(&probe), clients_(static_cast<std::size_t>(inner.size())) {
  // Sized once: the inner service keeps pointers to these upcalls.
  upcalls_.reserve(clients_.size());
  for (ProcId p = 0; p < inner.size(); ++p) upcalls_.emplace_back(*this, p);
}

void VsSeam::attach(ProcId p, vs::Client& client) {
  clients_[static_cast<std::size_t>(p)] = &client;
  inner_->attach(p, upcalls_[static_cast<std::size_t>(p)]);
}

void VsSeam::gpsnd(ProcId p, vs::Payload m) {
  Span s(probe_, Layer::kVsGpsnd);
  inner_->gpsnd(p, std::move(m));
}

void VsSeam::Upcall::on_gprcv(ProcId src, const vs::Payload& m) {
  const bool value = !m.empty() && m[0] == vstoto::kTagLabeledValue;
  Span s(seam_->probe_, value ? Layer::kGprcvValue : Layer::kGprcvExchange);
  seam_->clients_[static_cast<std::size_t>(p_)]->on_gprcv(src, m);
}

void VsSeam::Upcall::on_safe(ProcId src, const vs::Payload& m) {
  Span s(seam_->probe_, Layer::kSafe);
  seam_->clients_[static_cast<std::size_t>(p_)]->on_safe(src, m);
}

void VsSeam::Upcall::on_newview(const core::View& v) {
  Span s(seam_->probe_, Layer::kNewview);
  seam_->clients_[static_cast<std::size_t>(p_)]->on_newview(v);
}

ToSeam::ToSeam(to::Service& inner, Probe& probe)
    : inner_(&inner), probe_(&probe), clients_(static_cast<std::size_t>(inner.size())) {
  upcalls_.reserve(clients_.size());
  for (ProcId p = 0; p < inner.size(); ++p) upcalls_.emplace_back(*this, p);
}

void ToSeam::bcast(ProcId p, core::Value a) {
  Span s(probe_, Layer::kToBcast);
  inner_->bcast(p, std::move(a));
}

bool ToSeam::trysend(ProcId p, core::Value a) {
  Span s(probe_, Layer::kToBcast);
  return inner_->trysend(p, std::move(a));
}

void ToSeam::attach(ProcId p, to::Client& client) {
  clients_[static_cast<std::size_t>(p)] = &client;
  inner_->attach(p, upcalls_[static_cast<std::size_t>(p)]);
}

void ToSeam::Upcall::on_brcv(ProcId origin, const core::Value& a) {
  Span s(seam_->probe_, Layer::kAppApply);
  seam_->clients_[static_cast<std::size_t>(p_)]->on_brcv(origin, a);
}

namespace {
int validated_n(const harness::WorldConfig& config) {
  config.validate();
  if (config.backend != harness::Backend::kTokenRing || config.trace.enabled ||
      config.sampler.enabled || config.ring.admission_max_backlog > 0)
    throw std::invalid_argument(
        "Rig: only the plain token-ring World (no tracer, sampler or admission gate) is "
        "mirrored");
  for (const auto& r : config.shard_rings)
    if (r.admission_max_backlog > 0)
      throw std::invalid_argument("Rig: admission gates are not mirrored");
  return config.n;
}
}  // namespace

// Every step below is the step harness::World::World takes, in the same
// order; the seams are the only additions.
Rig::Rig(harness::WorldConfig config, Probe& probe)
    : config_(std::move(config)), probe_(&probe), sim_(), failures_(validated_n(config_)) {
  if (config_.n0 < 0) config_.n0 = config_.n;
  if (config_.quorums == nullptr) config_.quorums = core::majorities(config_.n);
  metrics_ = config_.metrics != nullptr ? config_.metrics
                                        : std::make_shared<obs::MetricsRegistry>();
  util::Rng rng(config_.seed);

  const int K = config_.shards;
  shards_.resize(static_cast<std::size_t>(K));
  for (auto& shard : shards_) {
    shard.recorder = std::make_unique<trace::Recorder>(sim_);
    shard.metrics = K == 1 ? metrics_ : std::make_shared<obs::MetricsRegistry>();
  }
  failures_.subscribe([this](const sim::StatusEvent& ev) {
    for (auto& shard : shards_) shard.recorder->record(ev);
  });

  net_ = std::make_unique<net::Network>(sim_, failures_, config_.link, rng.split());
  net_->bind_metrics(*metrics_);
  auto ring_config = [this](int k) {
    return config_.shard_rings.empty() ? config_.ring
                                       : config_.shard_rings[static_cast<std::size_t>(k)];
  };
  for (int k = 0; k < K; ++k) {
    Shard& shard = at(k);
    membership::TokenRingConfig rcfg = ring_config(k);
    rcfg.port = k;
    shard.ring = std::make_unique<membership::TokenRingVS>(sim_, *net_, failures_,
                                                           *shard.recorder, config_.n,
                                                           config_.n0, rcfg, rng.split());
    shard.ring->bind_metrics(*shard.metrics);
  }

  for (int k = 0; k < K; ++k) {
    Shard& shard = at(k);
    const auto exchange = ring_config(k).wire == membership::WireFormat::kV3
                              ? vstoto::ExchangeMode::kDigestDelta
                              : vstoto::ExchangeMode::kFullSummary;
    shard.vs = std::make_unique<VsSeam>(*shard.ring, probe);
    shard.stack = std::make_unique<to::Stack>(*shard.vs, *shard.recorder, config_.quorums,
                                              config_.n0, exchange);
    shard.stack->bind_metrics(*shard.metrics);
    shard.to = std::make_unique<ToSeam>(*shard.stack, probe);
  }

  for (auto& shard : shards_) shard.ring->start();
}

void Rig::collect_shard_metrics() {
  if (shards() == 1 || shard_metrics_collected_) return;
  shard_metrics_collected_ = true;
  for (int k = 0; k < shards(); ++k) {
    const obs::MetricsSnapshot snap = at(k).metrics->snapshot();
    metrics_->merge_from(snap);
    metrics_->merge_from(snap, "shard" + std::to_string(k) + ".");
  }
}

void Rig::require_proc(ProcId p, const char* what) const {
  if (p < 0 || p >= config_.n)
    throw std::invalid_argument(std::string(what) + ": processor " + std::to_string(p) +
                                " out of range");
}

void Rig::bcast_shard_at(sim::Time t, int shard, ProcId p, core::Value a) {
  require_proc(p, "bcast_shard_at");
  if (shard < 0 || shard >= shards())
    throw std::invalid_argument("bcast_shard_at: shard " + std::to_string(shard) +
                                " out of range");
  sim_.at(t, [this, shard, p, a = std::move(a)]() mutable { at(shard).to->bcast(p, std::move(a)); });
}

void Rig::partition_at(sim::Time t, std::vector<std::set<ProcId>> components) {
  harness::World::validate_partition(config_.n, components);
  sim_.at(t, [this, comps = std::move(components)] { failures_.partition(comps, sim_.now()); });
}

void Rig::heal_at(sim::Time t) {
  sim_.at(t, [this] { failures_.heal(sim_.now()); });
}

void Rig::proc_status_at(sim::Time t, ProcId p, sim::Status status) {
  require_proc(p, "proc_status_at");
  sim_.at(t, [this, p, status] { failures_.set_proc(p, status, sim_.now()); });
}

void Rig::link_status_at(sim::Time t, ProcId p, ProcId q, sim::Status status) {
  require_proc(p, "link_status_at");
  require_proc(q, "link_status_at");
  if (p == q) throw std::invalid_argument("link_status_at: self-link");
  sim_.at(t, [this, p, q, status] { failures_.set_link(p, q, status, sim_.now()); });
}

void Rig::apply(const harness::Scenario& scenario) {
  if (shards() != 1) throw std::invalid_argument("Rig::apply: scenarios drive one shard");
  for (const auto& timed : scenario.ops) {
    if (const auto* b = std::get_if<harness::OpBcast>(&timed.op))
      bcast_shard_at(timed.at, 0, b->p, b->a);
    else if (const auto* part = std::get_if<harness::OpPartition>(&timed.op))
      partition_at(timed.at, part->components);
    else if (std::get_if<harness::OpHeal>(&timed.op))
      heal_at(timed.at);
    else if (const auto* ps = std::get_if<harness::OpProcStatus>(&timed.op))
      proc_status_at(timed.at, ps->p, ps->status);
    else if (const auto* ls = std::get_if<harness::OpLinkStatus>(&timed.op))
      link_status_at(timed.at, ls->p, ls->q, ls->status);
  }
}

}  // namespace bench
