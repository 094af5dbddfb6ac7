// Small-scope exhaustive model checking of VS-machine: enumerate EVERY
// reachable state of tiny configurations (bounded action alphabet, bounded
// depth) and check Lemma 4.1 plus trace safety on every path. This is the
// executable analogue of the inductive proofs: within the bounded scope,
// no interleaving whatsoever violates the invariants.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "spec/to_machine.hpp"
#include "spec/to_trace_checker.hpp"
#include "spec/vs_machine.hpp"
#include "spec/vs_trace_checker.hpp"
#include "spec/weak_vs_machine.hpp"
#include "trace/events.hpp"

namespace vsg::spec {
namespace {

// The bounded exploration universe: n processors, a fixed set of candidate
// views, a fixed per-processor message budget.
struct Universe {
  int n = 2;
  int n0 = 2;
  std::vector<core::View> candidate_views;
  int max_sends_per_proc = 1;
};

struct PathState {
  VSMachine machine;
  trace::EventLog trace;
  std::vector<int> sends_used;

  PathState(int n, int n0) : machine(n, n0), sends_used(static_cast<std::size_t>(n), 0) {}
};

// Depth-first exploration of every enabled action sequence up to `depth`.
// Calls `check` after every transition; counts states visited.
class Explorer {
 public:
  Explorer(Universe universe, int depth) : universe_(std::move(universe)), depth_(depth) {}

  void run(const std::function<void(const PathState&)>& check) {
    PathState root(universe_.n, universe_.n0);
    check_ = &check;
    states_ = 0;
    dfs(root, 0);
  }

  std::size_t states_visited() const { return states_; }

 private:
  void visit(PathState& s, int depth, const std::function<void(PathState&)>& apply) {
    PathState next = s;  // copy the whole system state: genuine branching
    apply(next);
    ++states_;
    (*check_)(next);
    dfs(next, depth + 1);
  }

  void dfs(PathState& s, int depth) {
    if (depth >= depth_) return;
    const int n = universe_.n;

    for (const auto& v : universe_.candidate_views) {
      if (s.machine.createview_enabled(v))
        visit(s, depth, [&v](PathState& t) { t.machine.createview(v); });
      for (ProcId p = 0; p < n; ++p)
        if (s.machine.newview_enabled(v, p))
          visit(s, depth, [&v, p](PathState& t) {
            t.machine.newview(v, p);
            t.trace.push_back({0, trace::NewViewEvent{p, v}});
          });
    }
    for (ProcId p = 0; p < n; ++p) {
      if (s.sends_used[static_cast<std::size_t>(p)] < universe_.max_sends_per_proc) {
        visit(s, depth, [p](PathState& t) {
          const util::Bytes payload{static_cast<std::uint8_t>(
              0x10 * (p + 1) + t.sends_used[static_cast<std::size_t>(p)])};
          t.machine.gpsnd(p, payload);
          t.trace.push_back({0, trace::GpsndEvent{p, payload}});
          ++t.sends_used[static_cast<std::size_t>(p)];
        });
      }
      for (const auto& g : s.machine.touched_viewids())
        if (s.machine.vs_order_enabled(p, g))
          visit(s, depth, [p, g](PathState& t) { t.machine.vs_order(p, g); });
      if (s.machine.gprcv_next(p).has_value())
        visit(s, depth, [p](PathState& t) {
          const auto e = t.machine.gprcv(p);
          t.trace.push_back({0, trace::GprcvEvent{e.p, p, e.m}});
        });
      if (s.machine.safe_next(p).has_value())
        visit(s, depth, [p](PathState& t) {
          const auto e = t.machine.safe(p);
          t.trace.push_back({0, trace::SafeEvent{e.p, p, e.m}});
        });
    }
  }

  Universe universe_;
  int depth_;
  const std::function<void(const PathState&)>* check_ = nullptr;
  std::size_t states_ = 0;
};

Universe two_proc_universe() {
  Universe u;
  u.n = 2;
  u.n0 = 2;
  u.candidate_views = {
      core::View{core::ViewId{1, 0}, {0, 1}},
      core::View{core::ViewId{2, 0}, {0}},
      core::View{core::ViewId{2, 1}, {1}},
  };
  u.max_sends_per_proc = 1;
  return u;
}

TEST(ExhaustiveVSMachine, Lemma41OnEveryReachableState) {
  Explorer explorer(two_proc_universe(), /*depth=*/7);
  std::size_t checked = 0;
  explorer.run([&checked](const PathState& s) {
    const auto bad = check_lemma_4_1(s.machine);
    ASSERT_TRUE(bad.empty()) << bad.front();
    ++checked;
  });
  EXPECT_GT(explorer.states_visited(), 10000u) << "the scope must be non-trivial";
  EXPECT_EQ(checked, explorer.states_visited());
}

TEST(ExhaustiveVSMachine, EveryTraceIsCheckerSafe) {
  // Checking the (quadratic) trace checker on every path is pricier: use a
  // slightly smaller depth.
  Explorer explorer(two_proc_universe(), /*depth=*/6);
  explorer.run([](const PathState& s) {
    VSTraceChecker checker(2, 2);
    checker.check_all(s.trace);
    ASSERT_TRUE(checker.ok()) << checker.violations().front();
  });
  EXPECT_GT(explorer.states_visited(), 1000u);
}

TEST(ExhaustiveVSMachine, ThreeProcessorsShallow) {
  Universe u;
  u.n = 3;
  u.n0 = 2;  // processor 2 starts outside P0
  u.candidate_views = {
      core::View{core::ViewId{1, 0}, {0, 1, 2}},
      core::View{core::ViewId{2, 2}, {2}},
  };
  u.max_sends_per_proc = 1;
  Explorer explorer(u, /*depth=*/6);
  explorer.run([](const PathState& s) {
    const auto bad = check_lemma_4_1(s.machine);
    ASSERT_TRUE(bad.empty()) << bad.front();
  });
  EXPECT_GT(explorer.states_visited(), 5000u);
}

// TO-machine, same treatment: every schedule of a small universe keeps the
// trace checker green and the queue/pending/next invariants intact.
struct TOExplorer {
  TOMachine machine{2};
  trace::EventLog trace;
  int sends = 0;
  int max_sends;
  int depth_limit;
  std::size_t states = 0;

  TOExplorer(int sends_budget, int depth) : max_sends(sends_budget), depth_limit(depth) {}

  void check() {
    ++states;
    TOTraceChecker checker(2);
    checker.check_all(trace);
    ASSERT_TRUE(checker.ok()) << checker.violations().front();
    for (ProcId p = 0; p < 2; ++p)
      ASSERT_LE(machine.next(p), machine.queue().size() + 1);
  }

  void dfs(int depth) {
    if (depth >= depth_limit || ::testing::Test::HasFatalFailure()) return;
    // Snapshot only the explored state, never the visit counter.
    const TOMachine saved_machine = machine;
    const trace::EventLog saved_trace = trace;
    const int saved_sends = sends;
    auto restore = [&] {
      machine = saved_machine;
      trace = saved_trace;
      sends = saved_sends;
    };
    for (ProcId p = 0; p < 2; ++p) {
      if (sends < max_sends) {
        machine.bcast(p, "v" + std::to_string(sends));
        trace.push_back({0, trace::BcastEvent{p, "v" + std::to_string(sends)}});
        ++sends;
        check();
        dfs(depth + 1);
        restore();
      }
      if (machine.to_order_enabled(p)) {
        machine.to_order(p);
        check();
        dfs(depth + 1);
        restore();
      }
      if (machine.brcv_next(p).has_value()) {
        const auto e = machine.brcv(p);
        trace.push_back({0, trace::BrcvEvent{e.p, p, e.a}});
        check();
        dfs(depth + 1);
        restore();
      }
    }
  }
};

TEST(ExhaustiveTOMachine, AllSchedulesOfTwoValues) {
  TOExplorer ex(/*sends_budget=*/3, /*depth=*/10);
  ex.check();
  ex.dfs(0);
  EXPECT_GT(ex.states, 30000u);
}

}  // namespace
}  // namespace vsg::spec
