// The proof's invariants (Lemmas 6.1-6.24) checked on reachable states of
// VStoTO-system: the stack running over the VS-machine back end, stepped
// event by event through scenarios with traffic, partitions, merges and
// random churn.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>

#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "verify/invariants.hpp"

namespace vsg {
namespace {

using harness::Backend;
using harness::World;
using harness::WorldConfig;

WorldConfig spec_cfg(int n, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.n = n;
  cfg.backend = Backend::kSpec;
  cfg.seed = seed;
  return cfg;
}

// Step the simulator one event at a time, checking all invariants between
// events (every `stride`-th event, to keep runtime sane).
void run_checking(World& world, sim::Time until, int stride = 1) {
  const auto gs = world.global_state();
  int count = 0;
  while (world.simulator().now() < until && world.simulator().step()) {
    if (++count % stride != 0) continue;
    const auto bad = verify::check_all_invariants(gs);
    ASSERT_TRUE(bad.empty()) << "after event " << count << " at t="
                             << world.simulator().now() << ": " << bad.front();
  }
}

TEST(Invariants, HoldInitially) {
  World world(spec_cfg(3, 1));
  const auto bad = verify::check_all_invariants(world.global_state());
  EXPECT_TRUE(bad.empty()) << bad.front();
}

TEST(Invariants, HoldThroughNormalTraffic) {
  World world(spec_cfg(3, 2));
  harness::steady_traffic({0, 1, 2}, 5, sim::msec(10), sim::msec(15)).apply(world);
  run_checking(world, sim::sec(2));
}

TEST(Invariants, HoldThroughPartitionAndHeal) {
  World world(spec_cfg(5, 3));
  world.partition_at(sim::msec(50), {{0, 1, 2}, {3, 4}});
  world.bcast_at(sim::msec(200), 0, "maj");
  world.bcast_at(sim::msec(200), 3, "min");
  world.heal_at(sim::msec(400));
  world.bcast_at(sim::msec(600), 4, "post");
  run_checking(world, sim::sec(2));
}

TEST(Invariants, HoldThroughQuorumlessSplit) {
  World world(spec_cfg(4, 4));
  world.partition_at(sim::msec(50), {{0, 1}, {2, 3}});
  world.bcast_at(sim::msec(100), 0, "a");
  world.bcast_at(sim::msec(100), 2, "b");
  world.heal_at(sim::msec(300));
  run_checking(world, sim::sec(2));
}

class InvariantChurnFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvariantChurnFuzz, HoldUnderRandomChurn) {
  const auto seed = GetParam();
  World world(spec_cfg(4, seed));
  util::Rng rng(seed * 31 + 7);
  harness::random_churn(4, 10, sim::msec(20), sim::msec(800), {{0, 1, 2}, {3}}, rng)
      .apply(world);
  harness::random_traffic(4, 25, sim::msec(10), sim::msec(900), rng).apply(world);
  run_checking(world, sim::sec(3), /*stride=*/3);

  // Sanity: the run did something (views formed, values confirmed).
  const auto gs = world.global_state();
  EXPECT_GT(gs.machine->created().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantChurnFuzz,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

TEST(Invariants, DerivedVariablesWellFormedAfterBusyRun) {
  World world(spec_cfg(4, 99));
  world.partition_at(sim::msec(100), {{0, 1, 2}, {3}});
  harness::steady_traffic({0, 1}, 10, sim::msec(150), sim::msec(10)).apply(world);
  world.heal_at(sim::msec(500));
  world.run_until(sim::sec(2));

  const auto gs = world.global_state();
  std::vector<std::string> bad;
  const auto content = verify::allcontent(gs, &bad);
  EXPECT_TRUE(bad.empty());
  EXPECT_EQ(content.size(), 20u) << "every labeled value appears in allcontent";
  const auto confirm = verify::allconfirm(gs, &bad);
  ASSERT_TRUE(confirm.has_value());
  EXPECT_EQ(confirm->size(), 20u) << "everything confirmed after heal";
}

TEST(Invariants, CheckersDetectSeededCorruption) {
  // White-box: corrupt a process state via const_cast and confirm the
  // relevant lemma checker fires (guards against vacuously-true checkers).
  World world(spec_cfg(3, 7));
  harness::steady_traffic({0}, 3, sim::msec(10), sim::msec(10)).apply(world);
  world.run_until(sim::sec(1));
  const auto gs = world.global_state();
  ASSERT_TRUE(verify::check_all_invariants(gs).empty());

  auto& st = const_cast<vstoto::ProcessState&>(gs.procs[0]->state());
  // 6.11(1): established primary must have highprimary == current view id.
  const auto saved = st.highprimary;
  st.highprimary = std::nullopt;
  EXPECT_FALSE(verify::check_lemma_6_11(gs).empty());
  st.highprimary = saved;
  ASSERT_TRUE(verify::check_lemma_6_11(gs).empty());

  // Corollary 6.24: two inconsistent confirm prefixes.
  ASSERT_GE(st.order.size(), 2u);
  std::swap(st.order[0], st.order[1]);
  EXPECT_FALSE(verify::check_corollary_6_24(gs).empty() &&
               verify::check_corollary_6_23(gs).empty())
      << "swapped confirmed order must trip a confirm-consistency corollary";
}

TEST(Invariants, MoreCheckersDetectSeededCorruption) {
  World world(spec_cfg(3, 8));
  harness::steady_traffic({0, 1}, 3, sim::msec(10), sim::msec(10)).apply(world);
  world.run_until(sim::sec(1));
  const auto gs = world.global_state();
  ASSERT_TRUE(verify::check_all_invariants(gs).empty());

  auto& st0 = const_cast<vstoto::ProcessState&>(gs.procs[0]->state());

  {
    // 6.4: a label at/above the origin's (current, nextseqno) bound.
    const auto saved = st0.content;
    st0.content.emplace(core::Label{st0.current->id, st0.nextseqno + 5, 0}, "future");
    EXPECT_FALSE(verify::check_lemma_6_4(gs).empty());
    st0.content = saved;
  }
  {
    // 6.5: the same label bound to two different values at two processors.
    auto& st1 = const_cast<vstoto::ProcessState&>(gs.procs[1]->state());
    ASSERT_FALSE(st0.content.empty());
    const auto label = st0.content.begin()->first;
    const auto saved = st1.content;
    st1.content[label] = st0.content.begin()->second + "-conflict";
    EXPECT_FALSE(verify::check_lemma_6_5(gs).empty());
    st1.content = saved;
  }
  {
    // 6.6: a buffered label with no content binding.
    st0.buffer.push_back(core::Label{st0.current->id, 99, 0});
    EXPECT_FALSE(verify::check_lemma_6_6(gs).empty());
    st0.buffer.pop_back();
  }
  {
    // 6.10(2): established[current] must match status == normal.
    const auto saved = st0.established;
    st0.established.erase(st0.current->id);
    EXPECT_FALSE(verify::check_lemma_6_10(gs).empty());
    st0.established = saved;
  }
  {
    // 6.16: a summary in a member's gotstate whose ord no established
    // member's buildorder matches. buildorder[q, current] is order_q itself,
    // so the bogus ord has to live in a summary, not in anyone's order.
    core::Summary x = gs.procs[0]->local_summary();
    x.ord.push_back(core::Label{st0.current->id, 77, 0});
    const auto saved = st0.gotstate;
    st0.gotstate.insert_or_assign(1, core::full_entry(x, st0.exch_base));
    EXPECT_FALSE(verify::check_lemma_6_16(gs).empty());
    EXPECT_TRUE(verify::check_history_wellformed(gs).empty());
    st0.gotstate = saved;
  }
  {
    // 6.17: someone established a view whose member lags behind it.
    auto& st2 = const_cast<vstoto::ProcessState&>(gs.procs[2]->state());
    const auto saved = st2.current;
    st2.current = std::nullopt;
    EXPECT_FALSE(verify::check_lemma_6_17(gs).empty() ||
                 verify::check_lemma_6_1(gs).empty())
        << "a member behind an established view trips 6.17 (or 6.1 first)";
    st2.current = saved;
  }
  {
    // 6.21: ord containing a later same-origin label without the earlier one.
    // (buildorder[p0, current] aliases order, so it follows the edit.)
    const auto saved_order = st0.order;
    ASSERT_GE(st0.order.size(), 2u);
    // Remove the first of two same-origin labels from ord.
    st0.order.erase(st0.order.begin());
    EXPECT_FALSE(verify::check_lemma_6_21(gs).empty() &&
                 verify::check_corollary_6_23(gs).empty());
    st0.order = saved_order;
  }
  // Everything restored: clean again.
  EXPECT_TRUE(verify::check_all_invariants(gs).empty());
}

// Safety is stored as explicit labels plus a bit per order position, which
// the state exchange sets for a whole prefix at once
// (vstoto::Process::is_safe); Lemma 6.20 must see a safe label outside a
// member's buildorder prefix through either part.
TEST(Invariants, Lemma620ReportsASafeLabelOutsideABuildorderPrefix) {
  World world(spec_cfg(3, 8));
  harness::steady_traffic({0, 1}, 3, sim::msec(10), sim::msec(10)).apply(world);
  world.run_until(sim::sec(1));
  const auto gs = world.global_state();
  ASSERT_TRUE(verify::check_lemma_6_20(gs).empty());
  ASSERT_TRUE(gs.procs[0]->primary());

  std::vector<vstoto::ProcessState*> st;
  std::vector<vstoto::ProcessState> saved;
  for (const auto* proc : gs.procs) {
    st.push_back(&const_cast<vstoto::ProcessState&>(proc->state()));
    saved.push_back(*st.back());
    st.back()->safe_labels.clear();
    st.back()->safe_bits.clear();
  }
  ASSERT_GE(st[0]->order.size(), 2u);
  // Member 1's buildorder[current] (its order) stops one label short.
  st[1]->order.pop_back();
  ASSERT_TRUE(verify::check_lemma_6_20(gs).empty()) << "nothing is safe yet";

  const auto reports_p0 = [&] {
    for (const auto& line : verify::check_lemma_6_20(gs))
      if (line.find("safe label at p0 position " + std::to_string(st[0]->order.size() - 1) +
                    " not in member p1") != std::string::npos)
        return true;
    return false;
  };
  st[0]->safe_bits.assign(st[0]->order.size(), true);
  EXPECT_TRUE(reports_p0()) << "the last label is safe through a full prefix of bits";
  st[0]->safe_bits.pop_back();
  EXPECT_TRUE(verify::check_lemma_6_20(gs).empty()) << "a prefix one short covers p1";
  st[0]->safe_bits.clear();
  st[0]->safe_labels = {st[0]->order.back()};
  EXPECT_TRUE(reports_p0()) << "the last label is safe through the explicit set";
  st[0]->safe_labels.clear();
  st[0]->safe_bits.assign(st[0]->order.size(), false);
  st[0]->safe_bits[st[0]->order.size() - 2] = true;
  EXPECT_TRUE(verify::check_lemma_6_20(gs).empty()) << "the bit one short covers p1";
  st[0]->safe_bits.back() = true;
  EXPECT_TRUE(reports_p0()) << "the last label is safe through its bit";

  for (std::size_t p = 0; p < st.size(); ++p) {
    st[p]->order = saved[p].order;
    st[p]->safe_labels = saved[p].safe_labels;
    st[p]->safe_bits = saved[p].safe_bits;
  }
  EXPECT_TRUE(verify::check_all_invariants(gs).empty());
}

TEST(Invariants, HistoryAuditDetectsSeededCorruption) {
  World world(spec_cfg(3, 8));
  harness::steady_traffic({0, 1}, 3, sim::msec(10), sim::msec(10)).apply(world);
  world.run_until(sim::sec(1));
  const auto gs = world.global_state();
  ASSERT_TRUE(verify::check_history_wellformed(gs).empty());

  auto& st0 = const_cast<vstoto::ProcessState&>(gs.procs[0]->state());
  ASSERT_TRUE(st0.established.count(st0.current->id));
  {
    // An established current view without buildorder[p, current].
    st0.builds_current = false;
    EXPECT_FALSE(verify::check_history_wellformed(gs).empty());
    st0.builds_current = true;
  }
  {
    // A stored copy for the current view next to the alias.
    st0.buildorder[st0.current->id] = vstoto::OrderSnapshot::freeze(nullptr, st0.order, 0);
    EXPECT_FALSE(verify::check_history_wellformed(gs).empty());
    st0.buildorder.erase(st0.current->id);
  }
  {
    // A snapshot for a view the process has not reached yet.
    const core::ViewId future{st0.current->id.epoch + 1, 0};
    st0.buildorder[future] = vstoto::OrderSnapshot::freeze(nullptr, {}, 0);
    EXPECT_FALSE(verify::check_history_wellformed(gs).empty());
    st0.buildorder.erase(future);
  }
  EXPECT_TRUE(verify::check_all_invariants(gs).empty());
}

// The snapshot chain itself: a snapshot must share its prefix with the
// stored snapshot of an earlier view of the same process, and keep no more
// of it than it holds. The first and third corruptions below leave every
// snapshot reading the labels it was frozen with, so no lemma's checker
// would see them.
TEST(Invariants, HistoryAuditDetectsABadSnapshotBase) {
  World world(spec_cfg(3, 8));
  harness::steady_traffic({0, 1}, 3, sim::msec(10), sim::msec(10)).apply(world);
  world.partition_at(sim::msec(300), {{0, 1}, {2}});
  world.heal_at(sim::msec(600));
  world.run_until(sim::sec(1));
  const auto gs = world.global_state();
  ASSERT_TRUE(verify::check_all_invariants(gs).empty());

  auto& st0 = const_cast<vstoto::ProcessState&>(gs.procs[0]->state());
  const vstoto::ProcessState saved = st0;  // shares the snapshots, restores the map
  ASSERT_GE(st0.buildorder.size(), 2u);
  const auto newest = std::prev(st0.buildorder.end());
  const vstoto::OrderSnapshot::Ptr snap = newest->second;
  ASSERT_NE(snap->base(), nullptr) << "the newest exit shares a prefix";
  const auto plant = [&](vstoto::OrderSnapshot::Ptr base, std::size_t kept) {
    newest->second = std::make_shared<const vstoto::OrderSnapshot>(std::move(base), kept,
                                                                   snap->tail());
    return verify::check_history_wellformed(gs);
  };
  {
    // A base with the right labels that is not a stored snapshot.
    const auto copy = vstoto::OrderSnapshot::freeze(nullptr, snap->base()->labels(), 0);
    EXPECT_FALSE(plant(copy, snap->kept()).empty());
    EXPECT_EQ(newest->second->labels(), snap->labels());
  }
  {
    // Another process's snapshot of the same view.
    const auto& other = gs.procs[1]->state().buildorder;
    const auto it = other.find(std::prev(newest)->first);
    ASSERT_NE(it, other.end());
    EXPECT_FALSE(plant(it->second, snap->kept()).empty());
  }
  {
    // The view before the newest naming the newest, a later view, as base.
    const auto older = std::prev(newest);
    const vstoto::OrderSnapshot::Ptr was = older->second;
    older->second = std::make_shared<const vstoto::OrderSnapshot>(snap, 0, was->labels());
    EXPECT_FALSE(verify::check_history_wellformed(gs).empty());
    EXPECT_EQ(older->second->labels(), was->labels());
    older->second = was;
  }
  {
    // A kept prefix longer than its (stored, earlier) base holds.
    EXPECT_FALSE(plant(snap->base(), snap->base()->size() + 1).empty());
  }
  {
    // A kept prefix without a base.
    EXPECT_FALSE(plant(nullptr, 1).empty());
  }
  newest->second = snap;
  EXPECT_TRUE(verify::check_history_wellformed(gs).empty()) << "the stored chain is sound";
  st0 = saved;
  EXPECT_TRUE(verify::check_all_invariants(gs).empty());
}

}  // namespace
}  // namespace vsg
