// Exhaustive small-scope verification of the COMPLETE VStoTO-system:
// the VStoTO processes composed with VS-machine, explored over every
// schedule of a tiny universe (bounded views, bounded client inputs,
// bounded depth), with the full Lemma 6.x invariant suite and the
// well-definedness of the simulation relation f checked in every reachable
// state, and the TO trace checker run on every path's external trace.
//
// This is the closest executable analogue of the paper's inductive proofs:
// within the scope, *no* interleaving violates any invariant.

#include <gtest/gtest.h>

#include <functional>

#include "sim/simulator.hpp"
#include "spec/to_trace_checker.hpp"
#include "spec/vs_machine.hpp"
#include "to/stack.hpp"
#include "trace/recorder.hpp"
#include "verify/forward_simulation.hpp"
#include "verify/invariants.hpp"
#include "vstoto/process.hpp"

namespace vsg {
namespace {

// VS service that routes gpsnd straight into a VS-machine; the explorer
// drives all other machine transitions by hand.
class MachineVS final : public vs::Service {
 public:
  MachineVS(int n, int n0) : machine(n, n0), clients(static_cast<std::size_t>(n)) {}
  int size() const override { return machine.size(); }
  void attach(ProcId p, vs::Client& c) override {
    clients[static_cast<std::size_t>(p)] = &c;
  }
  void gpsnd(ProcId p, vs::Payload m) override {
    recorder->record(trace::GpsndEvent{p, m});
    machine.gpsnd(p, std::move(m));
  }

  spec::VSMachine machine;
  std::vector<vs::Client*> clients;
  trace::Recorder* recorder = nullptr;
};

struct Explorer {
  int n;
  int depth_limit;
  std::vector<core::View> candidate_views;
  int max_bcasts;

  sim::Simulator sim;
  trace::Recorder recorder{sim};
  MachineVS service;
  std::unique_ptr<to::Stack> stack;
  verify::GlobalState gs;

  std::size_t states = 0;
  int bcasts_used = 0;

  Explorer(int n_, int n0, int depth, std::vector<core::View> views, int bcasts)
      : n(n_),
        depth_limit(depth),
        candidate_views(std::move(views)),
        max_bcasts(bcasts),
        service(n_, n0) {
    service.recorder = &recorder;
    quorums_keepalive = core::majorities(n_);
    stack = std::make_unique<to::Stack>(service, recorder, quorums_keepalive, n0);
    gs.machine = &service.machine;
    gs.quorums = quorums_keepalive.get();
    for (ProcId p = 0; p < n_; ++p) gs.procs.push_back(&stack->process(p));
  }

  std::shared_ptr<const core::QuorumSystem> quorums_keepalive;

  struct Snapshot {
    spec::VSMachine machine;
    std::vector<vstoto::Process::Checkpoint> procs;
    trace::EventLog trace;
    int bcasts;
  };

  Snapshot take() {
    Snapshot s{service.machine, {}, recorder.events(), bcasts_used};
    for (ProcId p = 0; p < n; ++p) s.procs.push_back(stack->process(p).checkpoint());
    return s;
  }

  void put(const Snapshot& s) {
    service.machine = s.machine;
    for (ProcId p = 0; p < n; ++p)
      stack->process(p).restore(s.procs[static_cast<std::size_t>(p)]);
    // The recorder has no truncate API; rebuild by clearing and replaying.
    recorder.clear();
    for (const auto& te : s.trace) recorder.record(te.event);
    bcasts_used = s.bcasts;
  }

  void check_state() {
    ++states;
    const auto bad = verify::check_all_invariants(gs);
    ASSERT_TRUE(bad.empty()) << bad.front();
    std::vector<std::string> fbad;
    const auto image = verify::compute_f(gs, &fbad);
    ASSERT_TRUE(image.has_value()) << (fbad.empty() ? "f undefined" : fbad.front());
    spec::TOTraceChecker to_checker(n);
    to_checker.check_all(recorder.events());
    ASSERT_TRUE(to_checker.ok()) << to_checker.violations().front();
  }

  // Enumerate and recurse over every enabled transition.
  void dfs(int depth) {
    if (depth >= depth_limit || ::testing::Test::HasFatalFailure()) return;
    const Snapshot here = take();

    auto branch = [&](const std::function<void()>& apply) {
      apply();
      check_state();
      if (!::testing::Test::HasFatalFailure()) dfs(depth + 1);
      put(here);
    };

    // Client inputs.
    if (bcasts_used < max_bcasts) {
      for (ProcId p = 0; p < n; ++p)
        branch([this, p] {
          stack->bcast(p, "v" + std::to_string(bcasts_used));
          ++bcasts_used;
        });
    }
    // VS-machine internal/output transitions, each driving the client.
    for (const auto& v : candidate_views) {
      if (service.machine.createview_enabled(v))
        branch([this, &v] { service.machine.createview(v); });
      for (ProcId p = 0; p < n; ++p)
        if (service.machine.newview_enabled(v, p))
          branch([this, &v, p] {
            service.machine.newview(v, p);
            recorder.record(trace::NewViewEvent{p, v});
            service.clients[static_cast<std::size_t>(p)]->on_newview(v);
          });
    }
    for (ProcId p = 0; p < n; ++p) {
      for (const auto& g : service.machine.touched_viewids())
        if (service.machine.vs_order_enabled(p, g))
          branch([this, p, g] { service.machine.vs_order(p, g); });
      if (service.machine.gprcv_next(p).has_value())
        branch([this, p] {
          const auto e = service.machine.gprcv(p);
          recorder.record(trace::GprcvEvent{e.p, p, e.m});
          service.clients[static_cast<std::size_t>(p)]->on_gprcv(e.p, e.m);
        });
      if (service.machine.safe_next(p).has_value())
        branch([this, p] {
          const auto e = service.machine.safe(p);
          recorder.record(trace::SafeEvent{e.p, p, e.m});
          service.clients[static_cast<std::size_t>(p)]->on_safe(e.p, e.m);
        });
    }
  }
};

TEST(ExhaustiveSystem, TwoProcessorsOneValueAllSchedules) {
  // Universe: 2 processors (both in P0), one view change available
  // (shrinking to {0}), one client value. Depth 8 covers: bcast, order,
  // both deliveries, both safes, confirms, view change, state exchange.
  Explorer ex(2, 2, /*depth=*/8,
              {core::View{core::ViewId{1, 0}, {0, 1}}, core::View{core::ViewId{2, 0}, {0}}},
              /*bcasts=*/1);
  ex.check_state();
  ex.dfs(0);
  EXPECT_GT(ex.states, 20000u) << "non-trivial scope";
}

TEST(ExhaustiveSystem, TwoProcessorsTwoValuesShallow) {
  Explorer ex(2, 2, /*depth=*/7, {core::View{core::ViewId{1, 1}, {0, 1}}}, /*bcasts=*/2);
  ex.check_state();
  ex.dfs(0);
  EXPECT_GT(ex.states, 5000u);
}

TEST(ExhaustiveSystem, ThreeProcessorsViewChangeFocus) {
  // No client traffic: exhaustively exercise view formation / state
  // exchange schedules for 3 processors with a quorum view and a minority
  // view.
  Explorer ex(3, 3, /*depth=*/8,
              {core::View{core::ViewId{1, 0}, {0, 1}}, core::View{core::ViewId{2, 2}, {2}}},
              /*bcasts=*/0);
  ex.check_state();
  ex.dfs(0);
  EXPECT_GT(ex.states, 1000u);
}

}  // namespace
}  // namespace vsg
