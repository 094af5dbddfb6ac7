// WeakVS-machine (Remark, Section 4.1): createview only requires unique
// ids; the paper claims the two specifications allow exactly the same
// traces. We check the weak machine's extra freedom and probe the
// equivalence empirically: weak executions with out-of-order creation still
// pass the (strict) VS trace checker, because newview presents views in
// increasing order regardless.

#include <gtest/gtest.h>

#include "spec/vs_trace_checker.hpp"
#include "spec/weak_vs_machine.hpp"
#include "trace/events.hpp"
#include "util/rng.hpp"

namespace vsg::spec {
namespace {

core::View view(std::uint64_t epoch, ProcId origin, std::set<ProcId> members) {
  return core::View{core::ViewId{epoch, origin}, std::move(members)};
}

TEST(WeakVSMachine, AllowsOutOfOrderCreation) {
  WeakVSMachine m(3, 3);
  const auto v5 = view(5, 0, {0, 1});
  const auto v2 = view(2, 0, {0, 1, 2});
  EXPECT_TRUE(m.createview_enabled(v5));
  m.createview(v5);
  EXPECT_TRUE(m.createview_enabled(v2)) << "weak: lower id is fine if unique";
  m.createview(v2);
  EXPECT_FALSE(m.createview_enabled(view(2, 0, {1}))) << "duplicate id rejected";
}

TEST(WeakVSMachine, StrictMachineRejectsWhatWeakAccepts) {
  VSMachine strict(3, 3);
  WeakVSMachine weak(3, 3);
  const auto v5 = view(5, 0, {0, 1});
  const auto v2 = view(2, 0, {0, 1});
  strict.createview(v5);
  weak.createview(v5);
  EXPECT_FALSE(strict.createview_enabled(v2));
  EXPECT_TRUE(weak.createview_enabled(v2));
}

TEST(WeakVSMachine, NewviewStillMonotonePerProcessor) {
  WeakVSMachine m(2, 2);
  const auto v5 = view(5, 0, {0, 1});
  const auto v2 = view(2, 0, {0, 1});
  m.createview(v5);
  m.createview(v2);
  m.newview(v5, 0);
  EXPECT_FALSE(m.newview_enabled(v2, 0)) << "0 is already at id 5";
  EXPECT_TRUE(m.newview_enabled(v2, 1));
  m.newview(v2, 1);
  EXPECT_TRUE(m.newview_enabled(v5, 1));
}

// Drive a weak execution with deliberately out-of-order creations and emit
// the external trace; the trace must be accepted by the strict checker
// (the observable behaviour is a VS-machine behaviour).
TEST(WeakVSMachine, OutOfOrderCreationTraceIsStrictlySafe) {
  WeakVSMachine m(3, 3);
  trace::EventLog trace;
  auto emit = [&trace](trace::Event e) { trace.push_back({0, std::move(e)}); };

  const auto v9 = view(9, 1, {0, 1, 2});
  const auto v4 = view(4, 2, {1, 2});
  m.createview(v9);
  m.createview(v4);  // created later, smaller id

  // 1 and 2 pass through v4 before v9; 0 jumps straight to v9.
  m.newview(v4, 1);
  emit(trace::NewViewEvent{1, v4});
  m.newview(v4, 2);
  emit(trace::NewViewEvent{2, v4});

  m.gpsnd(1, util::Bytes{1});
  emit(trace::GpsndEvent{1, util::Bytes{1}});
  m.vs_order(1, v4.id);
  while (auto e = m.gprcv_next(1)) {
    m.gprcv(1);
    emit(trace::GprcvEvent{e->p, 1, e->m});
  }
  while (auto e = m.gprcv_next(2)) {
    m.gprcv(2);
    emit(trace::GprcvEvent{e->p, 2, e->m});
  }
  while (auto e = m.safe_next(1)) {
    m.safe(1);
    emit(trace::SafeEvent{e->p, 1, e->m});
  }

  m.newview(v9, 0);
  emit(trace::NewViewEvent{0, v9});
  m.newview(v9, 1);
  emit(trace::NewViewEvent{1, v9});
  m.newview(v9, 2);
  emit(trace::NewViewEvent{2, v9});
  m.gpsnd(0, util::Bytes{2});
  emit(trace::GpsndEvent{0, util::Bytes{2}});
  m.vs_order(0, v9.id);
  for (ProcId q = 0; q < 3; ++q)
    while (auto e = m.gprcv_next(q)) {
      m.gprcv(q);
      emit(trace::GprcvEvent{e->p, q, e->m});
    }

  VSTraceChecker checker(3, 3);
  checker.check_all(trace);
  EXPECT_TRUE(checker.ok()) << (checker.ok() ? "" : checker.violations().front());
}

// Randomized probe of the equivalence claim: random weak executions always
// produce strictly-safe traces.
class WeakVSEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeakVSEquivalence, RandomWeakExecutionsAreStrictlySafe) {
  util::Rng rng(GetParam());
  const int n = 3;
  WeakVSMachine m(n, n);
  trace::EventLog trace;
  auto emit = [&trace](trace::Event e) { trace.push_back({0, std::move(e)}); };
  std::uint8_t next_msg = 0;

  for (int step = 0; step < 300; ++step) {
    const auto choice = rng.below(5);
    const auto p = static_cast<ProcId>(rng.below(n));
    switch (choice) {
      case 0: {
        // Random epoch in a small range so collisions and out-of-order
        // creations are common.
        std::set<ProcId> members;
        for (ProcId q = 0; q < n; ++q)
          if (rng.chance(0.6)) members.insert(q);
        if (members.empty()) members.insert(p);
        const core::View v{core::ViewId{1 + rng.below(20), *members.begin()}, members};
        if (m.createview_enabled(v)) m.createview(v);
        break;
      }
      case 1: {
        const auto& created = m.created();
        const auto& v = created[rng.below(created.size())];
        if (m.newview_enabled(v, p)) {
          m.newview(v, p);
          emit(trace::NewViewEvent{p, v});
        }
        break;
      }
      case 2: {
        const util::Bytes payload{next_msg++};
        m.gpsnd(p, payload);
        emit(trace::GpsndEvent{p, payload});
        const auto cur = m.current_viewid(p);
        if (cur.has_value())
          while (m.vs_order_enabled(p, *cur)) m.vs_order(p, *cur);
        break;
      }
      case 3:
        if (auto e = m.gprcv_next(p)) {
          m.gprcv(p);
          emit(trace::GprcvEvent{e->p, p, e->m});
        }
        break;
      case 4:
        if (auto e = m.safe_next(p)) {
          m.safe(p);
          emit(trace::SafeEvent{e->p, p, e->m});
        }
        break;
    }
  }

  VSTraceChecker checker(n, n);
  checker.check_all(trace);
  EXPECT_TRUE(checker.ok()) << "seed " << GetParam() << ": "
                            << (checker.ok() ? "" : checker.violations().front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeakVSEquivalence, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace vsg::spec
