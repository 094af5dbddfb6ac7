#pragma once

// Host-time spans recorded by the benchmark around its calls into each
// layer. A span's self time is its duration minus the time covered by the
// spans nested inside it, so the self times of all spans opened in a run
// add up to the duration of that run's root spans. Only the benchmark's
// own files open spans; the library is never instrumented.

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace bench {

enum class Layer : std::uint8_t {
  kWorldCtor,      // harness: assembling the stack
  kSchedule,       // harness: handing the inputs to the simulator
  kChaosSchedule,  // chaos::generate_schedule
  kMembership,     // what remains of run_until: sim, net and the token ring
  kVsGpsnd,        // vs::Service::gpsnd, going down into the ring
  kToBcast,        // to::Service::bcast, going down into the TO stack
  kGprcvValue,     // vs::Client::on_gprcv of a labeled value
  kGprcvExchange,  // vs::Client::on_gprcv of a summary, digest or delta
  kSafe,           // vs::Client::on_safe
  kNewview,        // vs::Client::on_newview
  kAppWrite,       // app::ShardedKV::write
  kAppRead,        // app::ShardedKV::read
  kAppApply,       // to::Client::on_brcv into the replicated store
  kSpecTo,         // spec::TOTraceChecker::on_event
  kSpecVs,         // spec::VSTraceChecker::on_event
  kCount
};

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

inline const char* layer_name(Layer l) {
  static constexpr std::array<const char*, kLayers> kNames = {
      "harness.world_ctor", "harness.schedule",      "chaos.schedule", "membership",
      "vs.gpsnd",           "to.bcast",              "vstoto.gprcv_value",
      "vstoto.gprcv_exchange", "vstoto.safe",        "vstoto.newview", "app.write",
      "app.read",           "app.apply",             "spec.to_checker", "spec.vs_checker"};
  return kNames[static_cast<std::size_t>(l)];
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

struct LayerCost {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

class Probe {
 public:
  void open(Layer l) { stack_.push_back({l, now_ns(), 0}); }

  void close() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = now_ns() - f.start;
    LayerCost& c = costs_[static_cast<std::size_t>(f.layer)];
    ++c.calls;
    c.self_ns += dur - f.child;
    if (stack_.empty())
      root_ns_ += dur;
    else
      stack_.back().child += dur;
  }

  const std::array<LayerCost, kLayers>& costs() const noexcept { return costs_; }
  /// Total duration of the root spans: what the self times add up to.
  std::int64_t root_ns() const noexcept { return root_ns_; }

 private:
  struct Frame {
    Layer layer;
    std::int64_t start;
    std::int64_t child;
  };
  std::vector<Frame> stack_;
  std::array<LayerCost, kLayers> costs_{};
  std::int64_t root_ns_ = 0;
};

/// Opens a span for its lifetime; a null probe makes it free.
class Span {
 public:
  Span(Probe* probe, Layer l) : probe_(probe) {
    if (probe_ != nullptr) probe_->open(l);
  }
  ~Span() {
    if (probe_ != nullptr) probe_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Probe* probe_;
};

}  // namespace bench
