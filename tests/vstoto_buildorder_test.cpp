// The buildorder history variable as a chain of shared snapshots
// (vstoto::OrderSnapshot): what one snapshot stores, how a deep chain is
// read and freed, and what a partitionable run with the token ring freezes.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "verify/invariants.hpp"
#include "vstoto/buildorder.hpp"
#include "vstoto/process.hpp"

namespace vsg::vstoto {
namespace {

std::vector<core::Label> labels_of(std::initializer_list<std::uint32_t> seqnos) {
  std::vector<core::Label> out;
  for (const std::uint32_t k : seqnos) out.push_back(core::Label{core::ViewId{1, 0}, k, 0});
  return out;
}

TEST(OrderSnapshot, FreezeStoresOnlyWhatFollowsTheKeptPrefix) {
  const auto a = OrderSnapshot::freeze(nullptr, labels_of({1, 2, 3}), 0);
  EXPECT_EQ(a->base(), nullptr);
  EXPECT_EQ(a->tail(), labels_of({1, 2, 3}));

  // Appends since the last freeze: the whole of a is kept.
  const auto b = OrderSnapshot::freeze(a, labels_of({1, 2, 3, 4}), 3);
  EXPECT_EQ(b->base(), a);
  EXPECT_EQ(b->tail(), labels_of({4}));
  EXPECT_EQ(b->labels(), labels_of({1, 2, 3, 4}));

  // A cut below b: only its first label is kept.
  const auto c = OrderSnapshot::freeze(b, labels_of({1, 7, 8}), 1);
  EXPECT_EQ(c->kept(), 1u);
  EXPECT_EQ(c->tail(), labels_of({7, 8}));
  EXPECT_EQ(c->labels(), labels_of({1, 7, 8}));

  // Nothing kept: no base is held.
  const auto d = OrderSnapshot::freeze(c, labels_of({9}), 0);
  EXPECT_EQ(d->base(), nullptr);
  EXPECT_EQ(d->labels(), labels_of({9}));

  // The earlier snapshots read as they were frozen.
  EXPECT_EQ(a->labels(), labels_of({1, 2, 3}));
  EXPECT_EQ(b->labels(), labels_of({1, 2, 3, 4}));
}

TEST(OrderSnapshot, AnOverlongKeptPrefixReadsNoFurtherThanTheBase) {
  const auto a = OrderSnapshot::freeze(nullptr, labels_of({1, 2}), 0);
  const OrderSnapshot bad(a, 4, labels_of({5}));
  const auto got = bad.labels();
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0], labels_of({1})[0]);
  EXPECT_EQ(got[1], labels_of({2})[0]);
  EXPECT_EQ(got[4], labels_of({5})[0]);
}

// A chain as deep as a long-lived process's history: every link keeps the
// whole of the one before and adds one label, but for a cut every 1000
// links.
// Reading the newest link and freeing the chain are loops, not one stack
// frame per link (the sanitizer build's larger frames would overflow).
TEST(OrderSnapshot, HundredThousandDeepChainReadsBackAndFreesIteratively) {
  constexpr std::uint32_t kDepth = 100'000;
  std::vector<core::Label> order;
  OrderSnapshot::Ptr head;
  std::size_t stored = 0;
  for (std::uint32_t k = 1; k <= kDepth; ++k) {
    std::size_t kept = order.size();
    if (k % 1000 == 500) {
      kept = order.size() / 2;  // a cut: establishment kept half of order
      order.resize(kept);
    }
    order.push_back(core::Label{core::ViewId{k, 0}, 1, 0});
    head = OrderSnapshot::freeze(head, order, kept);
    stored += head->tail().size();
  }
  EXPECT_EQ(head->size(), order.size());
  EXPECT_EQ(head->labels(), order);
  EXPECT_EQ(stored, kDepth) << "every link stored only its own label";
  // The links behind the head are held only through it; dropping the head
  // frees them all.
  const OrderSnapshot::Ptr second = head->base();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second.use_count(), 2);
  head.reset();
  EXPECT_EQ(second.use_count(), 1);
  EXPECT_EQ(second->labels(), std::vector<core::Label>(order.begin(), order.end() - 1));
}

// Stands between the token ring and one process: forwards every input and,
// just before a newview, takes a literal copy of the order the process is
// about to freeze and the part of it that the freeze must store.
class ExitRecorder final : public vs::Client {
 public:
  explicit ExitRecorder(Process& proc) : proc_(&proc) {}

  void on_gprcv(ProcId src, const vs::Payload& m) override { proc_->on_gprcv(src, m); }
  void on_safe(ProcId src, const vs::Payload& m) override { proc_->on_safe(src, m); }
  void on_newview(const core::View& v) override {
    const ProcessState& st = proc_->state();
    if (st.builds_current) {
      const std::size_t prev =
          st.buildorder.empty() ? 0 : st.buildorder.rbegin()->second->size();
      exits[st.current->id] = st.order;
      tails += st.order.size() - st.order_watermark;
      full += st.order.size();
      if (st.order_watermark < prev) ++cuts;
    }
    proc_->on_newview(v);
  }

  std::map<core::ViewId, std::vector<core::Label>> exits;  // order at each freeze
  std::size_t tails = 0;  // sum of |order| - order_watermark at each freeze
  std::size_t full = 0;   // sum of |order| at each freeze (what full copies stored)
  int cuts = 0;           // freezes whose kept prefix is shorter than the last snapshot

 private:
  Process* proc_;
};

// Rotating minorities on the token ring: a pair is cut off, forms a
// non-primary view and merges back, again and again, under steady traffic.
// Every snapshot equals the literal order at its exit, the chain passes the
// history audit, and the labels stored over all snapshots are exactly what
// changed since each previous exit, far below one copy of order per view.
TEST(Buildorder, RotatingPartitionsOnTheTokenRingStoreOnlyWhatChanged) {
  harness::WorldConfig cfg;
  cfg.n = 5;
  cfg.backend = harness::Backend::kTokenRing;
  cfg.seed = 5;
  harness::World world(cfg);
  std::vector<ProcId> all(static_cast<std::size_t>(cfg.n));
  std::iota(all.begin(), all.end(), 0);
  harness::steady_traffic(all, 300, sim::msec(10), sim::msec(20)).apply(world);
  for (int cycle = 0; cycle < 10; ++cycle) {
    const sim::Time t = sim::msec(200) + cycle * sim::msec(600);
    const std::set<ProcId> minority = {cycle % cfg.n, (cycle + 1) % cfg.n};
    std::set<ProcId> majority;
    for (const ProcId p : all)
      if (minority.count(p) == 0) majority.insert(p);
    world.partition_at(t, {minority, majority});
    world.heal_at(t + sim::msec(400));
  }

  std::vector<std::unique_ptr<ExitRecorder>> rec;
  for (const ProcId p : all) {
    rec.push_back(std::make_unique<ExitRecorder>(world.stack().process(p)));
    world.vs().attach(p, *rec.back());
  }
  world.run_until(sim::sec(8));

  // The history audit reads only the processes' states; the token ring
  // has no VS-machine for World::global_state.
  verify::GlobalState gs;
  for (const ProcId p : all) gs.procs.push_back(&world.stack().process(p));
  EXPECT_TRUE(verify::check_history_wellformed(gs).empty());
  std::size_t stored = 0, tails = 0, full = 0, labels = 0;
  int cuts = 0;
  for (const ProcId p : all) {
    const ProcessState& st = world.stack().process(p).state();
    const ExitRecorder& r = *rec[static_cast<std::size_t>(p)];
    EXPECT_GE(r.exits.size(), 20u) << "at p" << p;
    ASSERT_EQ(st.buildorder.size(), r.exits.size()) << "at p" << p;
    for (const auto& [g, ord] : r.exits) {
      ASSERT_EQ(st.buildorder.count(g), 1u) << "at p" << p << " " << core::to_string(g);
      EXPECT_EQ(st.buildorder.at(g)->labels(), ord)
          << "at p" << p << " " << core::to_string(g);
    }
    for (const auto& [g, snap] : st.buildorder) stored += snap->tail().size();
    tails += r.tails;
    full += r.full;
    cuts += r.cuts;
    labels += st.order.size();
  }
  EXPECT_GT(cuts, 0) << "some non-primary establishment cut order below the last snapshot";
  EXPECT_GT(labels, 1000u) << "the run built a long history";
  EXPECT_EQ(stored, tails);
  EXPECT_LT(stored * 5, full) << "stored " << stored << " of " << full;
}

}  // namespace
}  // namespace vsg::vstoto
