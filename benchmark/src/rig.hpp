#pragma once

// Rig: harness::World's token-ring assembly rebuilt from the layers' public
// constructors, with a decorator at each of two seams so the traced run
// can time the calls that cross them:
//   - VsSeam sits between membership::TokenRingVS and to::Stack. It times
//     gpsnd going down and gprcv/safe/newview coming up, classifying each
//     gprcv payload by its vstoto tag byte.
//   - ToSeam sits between to::Stack and its client (the scheduled inputs, or
//     app::ShardedKV). It times bcast going down and brcv coming up.
// Construction mirrors World for the configurations the benchmark uses
// (token ring, K >= 1 shards, no admission gate, sampler or span tracer):
// the same Rng::split order, ports, registries and scheduling helpers, so
// a fixed seed drives the same execution. The benchmark checks that claim
// on every traced unit by comparing registries and delivery fingerprints.

#include <memory>
#include <set>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "probe.hpp"
#include "to/stack.hpp"

namespace bench {

class VsSeam final : public vsg::vs::Service {
 public:
  VsSeam(vsg::vs::Service& inner, Probe& probe);

  int size() const override { return inner_->size(); }
  void attach(vsg::ProcId p, vsg::vs::Client& client) override;
  void gpsnd(vsg::ProcId p, vsg::vs::Payload m) override;

 private:
  class Upcall final : public vsg::vs::Client {
   public:
    Upcall(VsSeam& seam, vsg::ProcId p) : seam_(&seam), p_(p) {}
    void on_gprcv(vsg::ProcId src, const vsg::vs::Payload& m) override;
    void on_safe(vsg::ProcId src, const vsg::vs::Payload& m) override;
    void on_newview(const vsg::core::View& v) override;

   private:
    VsSeam* seam_;
    vsg::ProcId p_;
  };

  vsg::vs::Service* inner_;
  Probe* probe_;
  std::vector<vsg::vs::Client*> clients_;
  std::vector<Upcall> upcalls_;
};

class ToSeam final : public vsg::to::Service {
 public:
  ToSeam(vsg::to::Service& inner, Probe& probe);

  int size() const override { return inner_->size(); }
  void bcast(vsg::ProcId p, vsg::core::Value a) override;
  bool trysend(vsg::ProcId p, vsg::core::Value a) override;
  void attach(vsg::ProcId p, vsg::to::Client& client) override;
  void set_delivery(vsg::to::DeliveryFn fn) override { inner_->set_delivery(std::move(fn)); }

 private:
  class Upcall final : public vsg::to::Client {
   public:
    Upcall(ToSeam& seam, vsg::ProcId p) : seam_(&seam), p_(p) {}
    void on_brcv(vsg::ProcId origin, const vsg::core::Value& a) override;

   private:
    ToSeam* seam_;
    vsg::ProcId p_;
  };

  vsg::to::Service* inner_;
  Probe* probe_;
  std::vector<vsg::to::Client*> clients_;
  std::vector<Upcall> upcalls_;
};

class Rig {
 public:
  /// Throws std::invalid_argument for configurations World would build
  /// differently (spec backend, admission gate, sampler, span tracer).
  Rig(vsg::harness::WorldConfig config, Probe& probe);

  int n() const noexcept { return config_.n; }
  int n0() const noexcept { return config_.n0; }
  int shards() const noexcept { return static_cast<int>(shards_.size()); }

  vsg::sim::Simulator& simulator() noexcept { return sim_; }
  vsg::trace::Recorder& recorder(int shard = 0) noexcept { return *at(shard).recorder; }
  vsg::obs::MetricsRegistry& metrics() noexcept { return *metrics_; }
  vsg::to::Stack& stack(int shard = 0) noexcept { return *at(shard).stack; }
  /// The traced TO service of shard `shard` (what clients submit through).
  vsg::to::Service& to(int shard = 0) noexcept { return *at(shard).to; }
  void collect_shard_metrics();

  // World's scheduling helpers, with World's argument validation.
  void bcast_shard_at(vsg::sim::Time t, int shard, vsg::ProcId p, vsg::core::Value a);
  void partition_at(vsg::sim::Time t, std::vector<std::set<vsg::ProcId>> components);
  void heal_at(vsg::sim::Time t);
  void proc_status_at(vsg::sim::Time t, vsg::ProcId p, vsg::sim::Status status);
  void link_status_at(vsg::sim::Time t, vsg::ProcId p, vsg::ProcId q,
                      vsg::sim::Status status);
  /// harness::Scenario::apply for a single-shard Rig.
  void apply(const vsg::harness::Scenario& scenario);

  void run_until(vsg::sim::Time t) {
    Span s(probe_, Layer::kMembership);
    sim_.run_until(t);
  }

 private:
  struct Shard {
    std::unique_ptr<vsg::trace::Recorder> recorder;
    std::shared_ptr<vsg::obs::MetricsRegistry> metrics;
    std::unique_ptr<vsg::membership::TokenRingVS> ring;
    std::unique_ptr<VsSeam> vs;
    std::unique_ptr<vsg::to::Stack> stack;
    std::unique_ptr<ToSeam> to;
  };

  Shard& at(int shard) noexcept { return shards_[static_cast<std::size_t>(shard)]; }
  void require_proc(vsg::ProcId p, const char* what) const;

  vsg::harness::WorldConfig config_;
  Probe* probe_;
  std::shared_ptr<vsg::obs::MetricsRegistry> metrics_;
  vsg::sim::Simulator sim_;
  vsg::sim::FailureTable failures_;
  std::unique_ptr<vsg::net::Network> net_;
  std::vector<Shard> shards_;
  bool shard_metrics_collected_ = false;
};

/// The TO service inputs are submitted through: the stack itself on a World,
/// the traced seam on a Rig.
inline vsg::to::Service& to_service(vsg::harness::World& w, int shard) {
  return w.stack(shard);
}
inline vsg::to::Service& to_service(Rig& r, int shard) { return r.to(shard); }

inline void apply_scenario(vsg::harness::World& w, const vsg::harness::Scenario& s) {
  s.apply(w);
}
inline void apply_scenario(Rig& r, const vsg::harness::Scenario& s) { r.apply(s); }

}  // namespace bench
