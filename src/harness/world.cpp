#include "harness/world.hpp"

#include <cassert>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/trace_export.hpp"
#include "spec/to_trace_checker.hpp"
#include "spec/vs_trace_checker.hpp"

namespace vsg::harness {

void WorldConfig::validate() const {
  if (n <= 0)
    throw std::invalid_argument("WorldConfig: n must be positive, got n=" +
                                std::to_string(n));
  if (n0 != -1 && (n0 <= 0 || n0 > n))
    throw std::invalid_argument(
        "WorldConfig: initial-view size n0 must be -1 (meaning n) or in [1, n=" +
        std::to_string(n) + "], got n0=" + std::to_string(n0));
  if (quorums != nullptr) {
    std::set<ProcId> universe;
    for (ProcId p = 0; p < n; ++p) universe.insert(p);
    if (!quorums->contains_quorum(universe))
      throw std::invalid_argument(
          "WorldConfig: quorum system '" + quorums->name() + "' is unsatisfiable by the " +
          std::to_string(n) +
          "-processor universe {0.." + std::to_string(n - 1) +
          "} — no primary view could ever form (was it built for a larger universe?)");
  }
  if (backend == Backend::kTokenRing && (ring.delta <= 0 || ring.pi <= 0 || ring.mu <= 0))
    throw std::invalid_argument(
        "WorldConfig: token-ring timing parameters must be positive (delta=" +
        std::to_string(ring.delta) + ", pi=" + std::to_string(ring.pi) +
        ", mu=" + std::to_string(ring.mu) + ")");
  if (shards < 1 || shards > kMaxShards)
    throw std::invalid_argument("WorldConfig: shards must be in [1, " +
                                std::to_string(kMaxShards) + "], got shards=" +
                                std::to_string(shards));
  if (shards > 1 && backend == Backend::kSpec)
    throw std::invalid_argument(
        "WorldConfig: the spec backend is single-stack; shards=" + std::to_string(shards) +
        " requires the token-ring backend");
  if (!shard_rings.empty() && static_cast<int>(shard_rings.size()) != shards)
    throw std::invalid_argument(
        "WorldConfig: shard_rings overrides must cover every shard (got " +
        std::to_string(shard_rings.size()) + " configs for shards=" + std::to_string(shards) +
        ")");
  for (std::size_t k = 0; k < shard_rings.size(); ++k) {
    const auto& r = shard_rings[k];
    if (backend == Backend::kTokenRing && (r.delta <= 0 || r.pi <= 0 || r.mu <= 0))
      throw std::invalid_argument(
          "WorldConfig: shard_rings[" + std::to_string(k) +
          "] timing parameters must be positive (delta=" + std::to_string(r.delta) +
          ", pi=" + std::to_string(r.pi) + ", mu=" + std::to_string(r.mu) + ")");
  }
}

namespace {
// Validation must run before any subsystem sees the config (FailureTable
// asserts on n, the ring divides by timing parameters).
int validated_n(const WorldConfig& config) {
  config.validate();
  return config.n;
}
}  // namespace

World::World(WorldConfig config)
    : config_(std::move(config)), sim_(), failures_(validated_n(config_)) {
  if (config_.n0 < 0) config_.n0 = config_.n;
  if (config_.quorums == nullptr) config_.quorums = core::majorities(config_.n);
  if (config_.metrics == nullptr) config_.metrics = std::make_shared<obs::MetricsRegistry>();
  metrics_ = config_.metrics;
  util::Rng rng(config_.seed);

  const int K = config_.shards;
  shards_.resize(static_cast<std::size_t>(K));
  for (auto& shard : shards_) {
    shard.recorder = std::make_unique<trace::Recorder>(sim_);
    // Every shard's checkers see the same failure/partition history, so
    // each recorder gets the full set of interface events it needs. With
    // K == 1 the bound registry is the World's own — names and counts stay
    // bit-identical to the pre-shard harness.
    shard.metrics = K == 1 ? metrics_ : std::make_shared<obs::MetricsRegistry>();
  }

  // Failure-status changes are input actions of the timed trace (Figure 4);
  // record them so the property checkers can find the stabilization point.
  failures_.subscribe([this](const sim::StatusEvent& ev) {
    for (auto& shard : shards_) shard.recorder->record(ev);
  });

  if (config_.backend == Backend::kSpec) {
    auto& s0 = shards_.front();
    auto spec = std::make_unique<vs::SpecVS>(sim_, failures_, *s0.recorder, config_.n,
                                             config_.n0, config_.spec_vs, rng.split());
    s0.spec_vs = spec.get();
    s0.vs = std::move(spec);
  } else {
    net_ = std::make_unique<net::Network>(sim_, failures_, config_.link, rng.split());
    net_->bind_metrics(*metrics_);
    for (int k = 0; k < K; ++k) {
      auto& shard = shards_[static_cast<std::size_t>(k)];
      membership::TokenRingConfig rcfg =
          config_.shard_rings.empty() ? config_.ring
                                      : config_.shard_rings[static_cast<std::size_t>(k)];
      rcfg.port = k;  // ring-scoped port space: frames never cross shards
      auto ring = std::make_unique<membership::TokenRingVS>(sim_, *net_, failures_,
                                                            *shard.recorder, config_.n,
                                                            config_.n0, rcfg, rng.split());
      shard.ring = ring.get();
      shard.ring->bind_metrics(*shard.metrics);
      shard.vs = std::move(ring);
    }
  }

  for (int k = 0; k < K; ++k) {
    auto& shard = shards_[static_cast<std::size_t>(k)];
    const membership::TokenRingConfig& rcfg =
        config_.shard_rings.empty() ? config_.ring
                                    : config_.shard_rings[static_cast<std::size_t>(k)];
    const auto exchange = config_.backend == Backend::kSpec
                              ? vstoto::ExchangeMode::kFullSummary
                              : config_.exchange;
    shard.stack = std::make_unique<to::Stack>(*shard.vs, *shard.recorder, config_.quorums,
                                              config_.n0, exchange);
    shard.stack->bind_metrics(*shard.metrics);
    // Sender-side admission gate (docs/FLOWCONTROL.md): armed only when the
    // ring config asks for it, so ungated worlds register no gate metrics
    // and stay bit-identical to pre-gate builds.
    if (shard.ring != nullptr && rcfg.admission_max_backlog > 0) {
      auto* ring = shard.ring;
      shard.stack->arm_admission(rcfg.admission_max_backlog,
                                 [ring](ProcId p) { return ring->backlog(p); },
                                 *shard.metrics);
      ring->set_drain_hook(
          [stack = shard.stack.get()](ProcId p) { stack->on_ring_drain(p); });
    }
  }

  if (config_.trace.enabled) {
    for (int k = 0; k < K; ++k) {
      auto& shard = shards_[static_cast<std::size_t>(k)];
      obs::TraceConfig tc = config_.trace;
      if (K > 1) tc.name_prefix = "shard" + std::to_string(k) + ".";
      shard.tracer = std::make_unique<obs::SpanTracer>(tc);
      shard.tracer->bind_metrics(*shard.metrics);
      if (net_ != nullptr) net_->set_tracer(k, shard.tracer.get());
      if (shard.ring != nullptr) shard.ring->set_tracer(shard.tracer.get());
      shard.stack->set_tracer(shard.tracer.get());
      // Events the explicit hooks do not cover arrive through the recorder
      // tap: bcast submissions (the tosnd milestone), newview deliveries
      // (state-exchange start) and failure-status markers.
      shard.recorder->subscribe([tracer = shard.tracer.get()](const trace::TimedEvent& te) {
        if (const auto* b = trace::as<trace::BcastEvent>(te))
          tracer->msg_submitted(b->p, te.at);
        else if (const auto* nv = trace::as<trace::NewViewEvent>(te))
          tracer->view_newview(nv->p, nv->view().id, te.at);
        else if (const auto* st = trace::as<sim::StatusEvent>(te))
          tracer->fault_marker(*st);
      });
    }
  }

  for (auto& shard : shards_)
    if (shard.ring != nullptr) shard.ring->start();

  if (config_.sampler.enabled) {
    sampler_ = std::make_unique<obs::Sampler>(config_.sampler);
    sampler_->health().bind_metrics(*metrics_);
    sampler_->health().set_liveness([this] {
      for (ProcId p = 0; p < config_.n; ++p)
        if (failures_.proc(p) != sim::Status::kBad) return true;
      return false;
    });
    sampler_->add_source("aggregate", [this] { return aggregate_snapshot(); });
    if (K > 1)
      for (int k = 0; k < K; ++k)
        sampler_->add_source("shard" + std::to_string(k),
                             [reg = shards_[static_cast<std::size_t>(k)].metrics] {
                               return reg->snapshot();
                             });
    sampler_->start(sim_);
  }
}

obs::MetricsSnapshot World::aggregate_snapshot() const {
  if (shards_.size() == 1 || shard_metrics_collected_) return metrics_->snapshot();
  obs::MetricsRegistry tmp;
  tmp.merge_from(metrics_->snapshot());
  for (int k = 0; k < static_cast<int>(shards_.size()); ++k) {
    const obs::MetricsSnapshot snap = at(k).metrics->snapshot();
    tmp.merge_from(snap);
    tmp.merge_from(snap, "shard" + std::to_string(k) + ".");
  }
  return tmp.snapshot();
}

bool World::write_timeline(const std::string& path) {
  if (sampler_ == nullptr) return false;
  // Sample twice at the same instant: the first pass may fire health
  // watchdogs (bumping health.* counters in metrics()); the second replaces
  // it so the final sample includes those bumps and exactly matches a
  // registry export taken now. Re-observing identical data never re-fires
  // an episode.
  sampler_->sample_now(sim_.now());
  sampler_->sample_now(sim_.now());
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << obs::write_timeseries(sampler_->doc());
  return static_cast<bool>(f);
}

void World::collect_shard_metrics() {
  if (shards() == 1 || shard_metrics_collected_) return;
  shard_metrics_collected_ = true;
  for (int k = 0; k < shards(); ++k) {
    const obs::MetricsSnapshot snap = at(k).metrics->snapshot();
    metrics_->merge_from(snap);
    metrics_->merge_from(snap, "shard" + std::to_string(k) + ".");
  }
}

std::vector<const obs::SpanTracer*> World::tracers() const {
  std::vector<const obs::SpanTracer*> out;
  for (const auto& shard : shards_)
    if (shard.tracer != nullptr) out.push_back(shard.tracer.get());
  return out;
}

bool World::write_chrome_trace(const std::string& path) const {
  const auto all = tracers();
  if (all.empty()) return false;
  return obs::write_chrome_trace_file(all, path);
}

namespace {
void require_proc_id(int n, ProcId p, const char* what) {
  if (p < 0 || p >= n)
    throw std::invalid_argument(std::string(what) + ": processor " + std::to_string(p) +
                                " out of range [0, " + std::to_string(n) + ")");
}
}  // namespace

void World::validate_partition(int n, const std::vector<std::set<ProcId>>& components) {
  if (components.empty())
    throw std::invalid_argument("partition: component list is empty (use heal to reconnect)");
  std::set<ProcId> seen;
  for (std::size_t c = 0; c < components.size(); ++c) {
    if (components[c].empty())
      throw std::invalid_argument("partition: component " + std::to_string(c) + " is empty");
    for (ProcId p : components[c]) {
      require_proc_id(n, p, "partition");
      if (!seen.insert(p).second)
        throw std::invalid_argument("partition: processor " + std::to_string(p) +
                                    " appears in more than one component");
    }
  }
  for (ProcId p = 0; p < n; ++p)
    if (seen.count(p) == 0)
      throw std::invalid_argument(
          "partition: processor " + std::to_string(p) +
          " is in no component — components must cover all of [0, " + std::to_string(n) +
          "); isolate a processor with an explicit singleton component");
}

void World::bcast_at(sim::Time t, ProcId p, core::Value a) {
  bcast_shard_at(t, 0, p, std::move(a));
}

void World::bcast_shard_at(sim::Time t, int shard, ProcId p, core::Value a) {
  require_proc_id(config_.n, p, "bcast_shard_at");
  if (shard < 0 || shard >= shards())
    throw std::invalid_argument("bcast_shard_at: shard " + std::to_string(shard) +
                                " out of range [0, " + std::to_string(shards()) + ")");
  // mutable + move: the value travels World -> Stack -> Process without a
  // copy (to.payload_copies counts what remains).
  sim_.at(t, [this, shard, p, a = std::move(a)]() mutable {
    at(shard).stack->bcast(p, std::move(a));
  });
}

void World::partition_at(sim::Time t, std::vector<std::set<ProcId>> components) {
  validate_partition(config_.n, components);
  sim_.at(t, [this, comps = std::move(components)] { failures_.partition(comps, sim_.now()); });
}

void World::heal_at(sim::Time t) {
  sim_.at(t, [this] { failures_.heal(sim_.now()); });
}

void World::proc_status_at(sim::Time t, ProcId p, sim::Status status) {
  require_proc_id(config_.n, p, "proc_status_at");
  sim_.at(t, [this, p, status] { failures_.set_proc(p, status, sim_.now()); });
}

void World::link_status_at(sim::Time t, ProcId p, ProcId q, sim::Status status) {
  require_proc_id(config_.n, p, "link_status_at");
  require_proc_id(config_.n, q, "link_status_at");
  if (p == q)
    throw std::invalid_argument("link_status_at: self-link (p == q == " + std::to_string(p) +
                                ")");
  sim_.at(t, [this, p, q, status] { failures_.set_link(p, q, status, sim_.now()); });
}

std::vector<std::string> World::check_to_safety(int shard) const {
  spec::TOTraceChecker checker(config_.n);
  checker.check_all(recorder(shard).events());
  return checker.violations();
}

std::vector<std::string> World::check_vs_safety(int shard) const {
  spec::VSTraceChecker checker(config_.n, config_.n0);
  checker.check_all(recorder(shard).events());
  return checker.violations();
}

props::TOPropertyReport World::to_report(const std::set<ProcId>& q, sim::Time d,
                                         sim::Time ignore_after) const {
  for (ProcId p : q) require_proc_id(config_.n, p, "to_report");
  return props::evaluate_to_property(recorder().events(), q, config_.n, d, ignore_after);
}

props::VSPropertyReport World::vs_report(const std::set<ProcId>& q, sim::Time d,
                                         sim::Time ignore_after) const {
  for (ProcId p : q) require_proc_id(config_.n, p, "vs_report");
  return props::evaluate_vs_property(recorder().events(), q, config_.n, config_.n0, d,
                                     ignore_after);
}

verify::GlobalState World::global_state() const {
  assert(spec_vs() != nullptr && "verification requires the spec back end");
  verify::GlobalState gs;
  gs.machine = &spec_vs()->machine();
  gs.quorums = config_.quorums.get();
  for (ProcId p = 0; p < config_.n; ++p)
    gs.procs.push_back(&shards_.front().stack->process(p));
  return gs;
}

}  // namespace vsg::harness
