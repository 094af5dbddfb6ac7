// VStoTO_p unit tests: each transition of Figures 9-10 exercised against a
// hand-driven fake VS service, including the state-exchange recovery paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "harness/world.hpp"
#include "sim/simulator.hpp"
#include "to/stack.hpp"
#include "trace/recorder.hpp"
#include "util/serde.hpp"
#include "verify/invariants.hpp"
#include "vstoto/process.hpp"

namespace vsg::vstoto {
namespace {

// A VS service the test drives by hand: records gpsnd calls per processor.
class FakeVS final : public vs::Service {
 public:
  explicit FakeVS(int n) : n_(n), clients_(static_cast<std::size_t>(n), nullptr) {}
  int size() const override { return n_; }
  void attach(ProcId p, vs::Client& c) override {
    clients_[static_cast<std::size_t>(p)] = &c;
  }
  void gpsnd(ProcId p, vs::Payload m) override {
    sent[static_cast<std::size_t>(p)].push_back(std::move(m));
  }
  // Deliver message m (as sent by src) to q.
  void deliver(ProcId src, ProcId q, const vs::Payload& m) {
    clients_[static_cast<std::size_t>(q)]->on_gprcv(src, m);
  }
  void deliver_all(ProcId src, const vs::Payload& m, const std::set<ProcId>& members) {
    for (ProcId q : members) deliver(src, q, m);
  }
  void make_safe(ProcId src, const vs::Payload& m, const std::set<ProcId>& members) {
    for (ProcId q : members) clients_[static_cast<std::size_t>(q)]->on_safe(src, m);
  }
  void newview(const core::View& v) {
    for (ProcId q : v.members) clients_[static_cast<std::size_t>(q)]->on_newview(v);
  }

  std::vector<std::vector<vs::Payload>> sent{8};

 private:
  int n_;
  std::vector<vs::Client*> clients_;
};

// Figure 9's safe-labels as Process::is_safe reads it, over every label the
// process holds: the explicit set, content and order (which holds every
// label a bit makes safe).
std::set<core::Label> safe_set(const Process& proc) {
  const auto& st = proc.state();
  std::set<core::Label> out;
  for (const auto& l : st.safe_labels)
    if (proc.is_safe(l)) out.insert(l);
  for (const auto& [l, a] : st.content)
    if (proc.is_safe(l)) out.insert(l);
  for (const auto& l : st.order)
    if (proc.is_safe(l)) out.insert(l);
  return out;
}

struct Fixture {
  sim::Simulator sim;
  trace::Recorder recorder{sim};
  FakeVS fake{3};
  std::vector<std::unique_ptr<Process>> procs;

  explicit Fixture(int n0 = 3,
                   std::shared_ptr<const core::QuorumSystem> quorums = core::majorities(3)) {
    for (ProcId p = 0; p < 3; ++p) {
      procs.push_back(std::make_unique<Process>(p, n0, quorums, fake, recorder));
      fake.attach(p, *procs[static_cast<std::size_t>(p)]);
    }
  }
  Process& at(ProcId p) { return *procs[static_cast<std::size_t>(p)]; }
};

TEST(Process, InitialStateInP0) {
  Fixture f;
  const auto& st = f.at(0).state();
  ASSERT_TRUE(st.current.has_value());
  EXPECT_EQ(st.current->id, core::ViewId::initial());
  EXPECT_EQ(st.status, PStatus::kNormal);
  EXPECT_EQ(st.highprimary, std::optional<core::ViewId>(core::ViewId::initial()));
  EXPECT_TRUE(f.at(0).primary()) << "P0 = all three is a majority";
}

TEST(Process, InitialStateOutsideP0) {
  Fixture f(/*n0=*/2);
  const auto& st = f.at(2).state();
  EXPECT_FALSE(st.current.has_value());
  EXPECT_FALSE(st.highprimary.has_value());
  EXPECT_FALSE(f.at(2).primary());
}

TEST(Process, BcastLabelsAndSends) {
  Fixture f;
  f.at(0).bcast("hello");
  // label consumed the delay entry, gpsnd shipped the labeled value.
  const auto& st = f.at(0).state();
  EXPECT_TRUE(st.delay.empty());
  EXPECT_TRUE(st.buffer.empty());
  EXPECT_EQ(st.nextseqno, 2u);
  EXPECT_EQ(st.content.size(), 1u);
  ASSERT_EQ(f.fake.sent[0].size(), 1u);
  const auto msg = decode_message_ex(f.fake.sent[0][0]).value;
  ASSERT_TRUE(msg.has_value());
  const auto& lv = std::get<LabeledValue>(*msg);
  EXPECT_EQ(lv.value, "hello");
  EXPECT_EQ(lv.label.origin, 0);
  EXPECT_EQ(lv.label.seqno, 1u);
}

TEST(Process, BcastWithNoViewStaysInDelay) {
  Fixture f(/*n0=*/2);
  f.at(2).bcast("stuck");
  EXPECT_EQ(f.at(2).state().delay.size(), 1u);
  EXPECT_TRUE(f.fake.sent[2].empty());
}

TEST(Process, PrimaryDeliveryPathConfirmsOnSafe) {
  Fixture f;
  f.at(0).bcast("v");
  const auto payload = f.fake.sent[0][0];
  f.fake.deliver_all(0, payload, {0, 1, 2});
  // Delivered into order everywhere, but not yet confirmed.
  for (ProcId p = 0; p < 3; ++p) {
    EXPECT_EQ(f.at(p).state().order.size(), 1u);
    EXPECT_TRUE(f.at(p).delivered().empty());
  }
  f.fake.make_safe(0, payload, {0, 1, 2});
  for (ProcId p = 0; p < 3; ++p) {
    EXPECT_EQ(f.at(p).state().nextconfirm, 2u);
    ASSERT_EQ(f.at(p).delivered().size(), 1u);
    EXPECT_EQ(f.at(p).delivered()[0].second, "v");
  }
}

// In a primary view in normal status a safe finds its label in order, so
// it sets the bit at the label's position and keeps no explicit label; a
// label confirms once every position up to its own is safe.
TEST(Process, SafeInNormalStatusSetsTheBitAtTheLabelsPosition) {
  Fixture f;
  f.at(0).bcast("a");
  const auto a_msg = f.fake.sent[0].back();
  f.at(1).bcast("b");
  const auto b_msg = f.fake.sent[1].back();
  f.fake.deliver_all(0, a_msg, {0, 1, 2});
  f.fake.deliver_all(1, b_msg, {0, 1, 2});

  f.fake.make_safe(1, b_msg, {0, 1, 2});
  for (ProcId p = 0; p < 3; ++p) {
    const auto& st = f.at(p).state();
    ASSERT_EQ(st.order.size(), 2u);
    EXPECT_EQ(st.safe_bits, std::vector<bool>({false, true})) << "at " << p;
    EXPECT_TRUE(st.safe_labels.empty()) << "at " << p;
    EXPECT_EQ(safe_set(f.at(p)), std::set<core::Label>{st.order[1]}) << "at " << p;
    EXPECT_EQ(st.nextconfirm, 1u) << "a, ahead of b, is not safe yet";
  }
  f.fake.make_safe(0, a_msg, {0, 1, 2});
  for (ProcId p = 0; p < 3; ++p) {
    const auto& st = f.at(p).state();
    EXPECT_EQ(st.safe_bits, std::vector<bool>({true, true})) << "at " << p;
    EXPECT_EQ(st.nextconfirm, 3u) << "at " << p;
    ASSERT_EQ(f.at(p).delivered().size(), 2u) << "at " << p;
    EXPECT_EQ(f.at(p).delivered()[0].second, "a");
    EXPECT_EQ(f.at(p).delivered()[1].second, "b");
  }
}

TEST(Process, NonPrimaryRecordsContentButDoesNotOrder) {
  Fixture f;
  // Move 0 and 1 into a minority view {0,1}... of majorities(3), {0,1} IS a
  // majority; use {0} to get a real non-primary.
  const core::View v{core::ViewId{1, 0}, {0}};
  f.fake.newview(v);
  // Establish the singleton view: deliver 0's own summary back.
  ASSERT_EQ(f.fake.sent[0].size(), 1u);
  f.fake.deliver(0, 0, f.fake.sent[0][0]);
  EXPECT_EQ(f.at(0).state().status, PStatus::kNormal);
  EXPECT_FALSE(f.at(0).primary());

  f.at(0).bcast("lonely");
  ASSERT_EQ(f.fake.sent[0].size(), 2u);
  f.fake.deliver(0, 0, f.fake.sent[0][1]);
  EXPECT_EQ(f.at(0).state().content.size(), 1u);
  EXPECT_TRUE(f.at(0).state().order.empty()) << "non-primary must not extend order";
  f.at(0).on_safe(0, f.fake.sent[0][1]);
  EXPECT_TRUE(safe_set(f.at(0)).empty()) << "non-primary ignores safe";
  EXPECT_TRUE(f.at(0).delivered().empty());
}

TEST(Process, NewviewResetsPerViewState) {
  Fixture f;
  f.at(0).bcast("a");
  const core::View v{core::ViewId{1, 0}, {0, 1}};
  f.fake.newview(v);
  const auto& st = f.at(0).state();
  EXPECT_EQ(st.status, PStatus::kCollect) << "summary sent immediately, now collecting";
  EXPECT_TRUE(st.buffer.empty());
  EXPECT_TRUE(st.gotstate.empty());
  EXPECT_TRUE(safe_set(f.at(0)).empty());
  EXPECT_TRUE(st.safe_bits.empty());
  EXPECT_EQ(st.nextseqno, 1u);
  EXPECT_EQ(st.current->id, v.id);
  // The state-exchange summary went out and carries the old content.
  const auto msg = decode_message_ex(f.fake.sent[0].back()).value;
  ASSERT_TRUE(msg.has_value());
  const auto& x = std::get<core::Summary>(*msg);
  EXPECT_EQ(x.con.size(), 1u);
  EXPECT_EQ(x.high, std::optional<core::ViewId>(core::ViewId::initial()));
}

TEST(Process, EstablishmentAdoptsFullorderInPrimary) {
  Fixture f;
  // 0 has an unconfirmed labeled value from the initial view.
  f.at(0).bcast("z");
  const auto zmsg = f.fake.sent[0][0];
  f.fake.deliver(0, 0, zmsg);  // only 0 saw it

  const core::View v{core::ViewId{1, 0}, {0, 1, 2}};
  f.fake.newview(v);
  // Exchange all three summaries.
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    for (ProcId q = 0; q < 3; ++q) f.fake.deliver(p, q, summary);
  }
  for (ProcId p = 0; p < 3; ++p) {
    const auto& st = f.at(p).state();
    EXPECT_EQ(st.status, PStatus::kNormal);
    ASSERT_EQ(st.order.size(), 1u) << "fullorder picked up the known label";
    EXPECT_EQ(st.highprimary, std::optional<core::ViewId>(v.id));
    EXPECT_TRUE(st.established.count(v.id)) << "history variable set";
  }
  // Safe exchange completes -> the label becomes safe -> confirm -> deliver.
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    f.fake.make_safe(p, summary, {0, 1, 2});
  }
  for (ProcId p = 0; p < 3; ++p) {
    ASSERT_EQ(f.at(p).delivered().size(), 1u) << "at " << p;
    EXPECT_EQ(f.at(p).delivered()[0].second, "z");
  }
}

TEST(Process, NonPrimaryEstablishmentAdoptsShortorder) {
  Fixture f;
  const core::View v{core::ViewId{1, 0}, {0}};
  f.fake.newview(v);
  f.fake.deliver(0, 0, f.fake.sent[0][0]);
  const auto& st = f.at(0).state();
  EXPECT_EQ(st.status, PStatus::kNormal);
  // highprimary = maxprimary(gotstate) = g0 (from its own summary).
  EXPECT_EQ(st.highprimary, std::optional<core::ViewId>(core::ViewId::initial()));
}

TEST(Process, UndecodablePayloadIgnored) {
  Fixture f;
  f.at(0).on_gprcv(1, util::Bytes{0xFF, 0x00});
  f.at(0).on_safe(1, util::Bytes{});
  EXPECT_TRUE(f.at(0).state().content.empty());
}

TEST(Process, DuplicateOrderGuard) {
  // Deliver the same labeled value twice (which VS itself would never do):
  // content is a set, and the order must not grow twice.
  Fixture f;
  f.at(0).bcast("v");
  const auto payload = f.fake.sent[0][0];
  f.fake.deliver(0, 1, payload);
  f.fake.deliver(0, 1, payload);
  EXPECT_EQ(f.at(1).state().order.size(), 1u);
  EXPECT_EQ(f.at(1).state().content.size(), 1u);
}

TEST(Process, LocalSummaryReflectsState) {
  Fixture f;
  f.at(0).bcast("v");
  const auto x = f.at(0).local_summary();
  EXPECT_EQ(x.con.size(), 1u);
  EXPECT_EQ(x.next, 1u);
  EXPECT_EQ(x.high, std::optional<core::ViewId>(core::ViewId::initial()));
}

// A full succession of primaries, driven by hand: the representative
// choice must favor the member with the freshest primary history, and the
// confirmed prefix must survive every reconfiguration (the heart of
// Lemmas 6.13/6.18 at unit level).
TEST(Process, PrimarySuccessionPreservesConfirmedPrefixAndPicksFreshRep) {
  Fixture f;
  // Round 1: initial primary view {0,1,2} confirms value "a" from 0.
  f.at(0).bcast("a");
  const auto a_msg = f.fake.sent[0][0];
  f.fake.deliver_all(0, a_msg, {0, 1, 2});
  f.fake.make_safe(0, a_msg, {0, 1, 2});
  for (ProcId p = 0; p < 3; ++p) ASSERT_EQ(f.at(p).delivered().size(), 1u);

  // Round 2: {0,1} forms (still a majority of 3 => primary). 2 is cut off.
  const core::View v2{core::ViewId{1, 0}, {0, 1}};
  f.fake.newview(v2);
  for (ProcId p : {0, 1}) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    f.fake.deliver(p, 0, summary);
    f.fake.deliver(p, 1, summary);
  }
  EXPECT_EQ(f.at(0).state().highprimary, std::optional<core::ViewId>(v2.id));
  // New value "b" confirmed inside v2.
  f.at(1).bcast("b");
  const auto b_msg = f.fake.sent[1].back();
  f.fake.deliver(1, 0, b_msg);
  f.fake.deliver(1, 1, b_msg);
  f.fake.make_safe(1, b_msg, {0, 1});
  ASSERT_EQ(f.at(0).delivered().size(), 2u);
  EXPECT_EQ(f.at(0).delivered()[1].second, "b");
  // 2 is oblivious: still in the initial view with highprimary g0.
  EXPECT_EQ(f.at(2).state().highprimary,
            std::optional<core::ViewId>(core::ViewId::initial()));

  // Round 3: full merge {0,1,2}. The representative must come from {0,1}
  // (their highprimary v2.id beats 2's g0), so "b" keeps its place and 2
  // catches up on delivery.
  const core::View v3{core::ViewId{2, 0}, {0, 1, 2}};
  f.fake.newview(v3);
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    for (ProcId q = 0; q < 3; ++q) f.fake.deliver(p, q, summary);
  }
  for (ProcId p = 0; p < 3; ++p) {
    const auto& st = f.at(p).state();
    EXPECT_EQ(st.status, PStatus::kNormal);
    ASSERT_EQ(st.order.size(), 2u) << "confirmed prefix [a, b] survives";
    EXPECT_EQ(st.highprimary, std::optional<core::ViewId>(v3.id));
  }
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    f.fake.make_safe(p, summary, {0, 1, 2});
  }
  ASSERT_EQ(f.at(2).delivered().size(), 2u) << "2 recovered the full history";
  EXPECT_EQ(f.at(2).delivered()[0].second, "a");
  EXPECT_EQ(f.at(2).delivered()[1].second, "b");
}

// The stale-minority case: a non-primary member accumulates *tentative*
// state that a later primary must order after everything confirmed.
TEST(Process, StaleTentativeOrderLosesToFresherPrimary) {
  Fixture f;
  // 2 gets isolated into a singleton (non-primary) view and receives a
  // labeled value that only it knows (tentative, never ordered).
  const core::View lone{core::ViewId{1, 2}, {2}};
  f.fake.newview(lone);
  f.fake.deliver(2, 2, f.fake.sent[2].back());  // establish the singleton
  f.at(2).bcast("stale");
  const auto stale_msg = f.fake.sent[2].back();
  f.fake.deliver(2, 2, stale_msg);
  EXPECT_TRUE(f.at(2).state().order.empty()) << "non-primary: content only";

  // Meanwhile {0,1} confirms "fresh" in a primary view.
  const core::View duo{core::ViewId{2, 0}, {0, 1}};
  f.fake.newview(duo);
  for (ProcId p : {0, 1}) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    f.fake.deliver(p, 0, summary);
    f.fake.deliver(p, 1, summary);
  }
  f.at(0).bcast("fresh");
  const auto fresh_msg = f.fake.sent[0].back();
  f.fake.deliver(0, 0, fresh_msg);
  f.fake.deliver(0, 1, fresh_msg);
  f.fake.make_safe(0, fresh_msg, {0, 1});

  // Merge: fullorder = rep's order ("fresh") then remaining labels — 2's
  // "stale" value enters the order after it.
  const core::View all{core::ViewId{3, 0}, {0, 1, 2}};
  f.fake.newview(all);
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    for (ProcId q = 0; q < 3; ++q) f.fake.deliver(p, q, summary);
  }
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    f.fake.make_safe(p, summary, {0, 1, 2});
  }
  for (ProcId p = 0; p < 3; ++p) {
    ASSERT_EQ(f.at(p).delivered().size(), 2u) << "at " << p;
    EXPECT_EQ(f.at(p).delivered()[0].second, "fresh") << "confirmed history first";
    EXPECT_EQ(f.at(p).delivered()[1].second, "stale");
  }
}

// buildorder[p, current] is order itself while builds_current is set; the
// map only gains an entry when p leaves a view, frozen at that moment.
TEST(Process, BuildorderSnapshotsOrderOnViewExit) {
  Fixture f(/*n0=*/2);
  EXPECT_TRUE(f.at(0).state().builds_current) << "buildorder[p, g0] = {} exists";
  EXPECT_TRUE(f.at(0).state().buildorder.empty());
  EXPECT_FALSE(f.at(2).state().builds_current) << "no view, no buildorder";

  f.at(0).bcast("a");
  f.fake.deliver_all(0, f.fake.sent[0][0], {0, 1});
  const auto order_at_exit = f.at(0).state().order;
  ASSERT_EQ(order_at_exit.size(), 1u);

  const core::View v1{core::ViewId{1, 0}, {0, 1, 2}};
  f.fake.newview(v1);
  for (ProcId p = 0; p < 3; ++p) {
    const auto& st = f.at(p).state();
    EXPECT_FALSE(st.builds_current) << "at " << p;
    EXPECT_EQ(st.buildorder.count(v1.id), 0u) << "at " << p;
  }
  EXPECT_EQ(f.at(0).state().buildorder.at(core::ViewId::initial())->labels(), order_at_exit);
  EXPECT_EQ(f.at(2).state().buildorder.count(core::ViewId::initial()), 0u)
      << "2 never was in g0";

  // Establishment turns the alias back on without storing a copy.
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    for (ProcId q = 0; q < 3; ++q) f.fake.deliver(p, q, summary);
  }
  for (ProcId p = 0; p < 3; ++p) {
    const auto& st = f.at(p).state();
    EXPECT_TRUE(st.builds_current) << "at " << p;
    EXPECT_EQ(st.buildorder.count(v1.id), 0u) << "at " << p;
  }
  // The g0 snapshot is frozen: growing order in v1 leaves it alone.
  f.at(1).bcast("b");
  f.fake.deliver_all(1, f.fake.sent[1].back(), {0, 1, 2});
  EXPECT_EQ(f.at(0).state().order.size(), 2u);
  EXPECT_EQ(f.at(0).state().buildorder.at(core::ViewId::initial())->labels(), order_at_exit);
}

TEST(Process, ViewLeftBeforeEstablishmentHasNoBuildorder) {
  Fixture f;
  const core::View v1{core::ViewId{1, 0}, {0, 1, 2}};
  const core::View v2{core::ViewId{2, 0}, {0, 1, 2}};
  f.fake.newview(v1);
  f.fake.newview(v2);  // v1 never established and never appended to
  for (ProcId p = 0; p < 3; ++p) {
    const auto& st = f.at(p).state();
    EXPECT_EQ(st.buildorder.count(core::ViewId::initial()), 1u) << "at " << p;
    EXPECT_EQ(st.buildorder.count(v1.id), 0u) << "at " << p;
    EXPECT_FALSE(st.builds_current) << "at " << p;
  }
}

TEST(Process, CheckpointRestoreRoundTripsBuildsCurrent) {
  Fixture f;
  f.at(0).bcast("a");
  f.fake.deliver_all(0, f.fake.sent[0][0], {0, 1, 2});
  const auto cp = f.at(0).checkpoint();
  ASSERT_TRUE(cp.st.builds_current);

  f.fake.newview(core::View{core::ViewId{1, 0}, {0, 1, 2}});
  ASSERT_FALSE(f.at(0).state().builds_current);
  ASSERT_EQ(f.at(0).state().buildorder.size(), 1u);

  f.at(0).restore(cp);
  EXPECT_TRUE(f.at(0).state().builds_current);
  EXPECT_TRUE(f.at(0).state().buildorder.empty());
  EXPECT_EQ(f.at(0).state().order, cp.st.order);
}

// Runs a digest/delta (or full-summary) state exchange for view v by hand:
// every member's first exchange message reaches every member, then (delta
// mode) every delta does. Returns each member's exchange message that the
// safe indications key on (its delta, or its summary).
std::vector<vs::Payload> exchange_all(Fixture& f, const core::View& v) {
  std::vector<vs::Payload> last(3);
  f.fake.newview(v);
  for (ProcId p : v.members) {
    const auto first = f.fake.sent[static_cast<std::size_t>(p)].back();
    f.fake.deliver_all(p, first, v.members);
  }
  for (ProcId p : v.members) {
    const auto m = f.fake.sent[static_cast<std::size_t>(p)].back();
    if (f.at(p).exchange_mode() == ExchangeMode::kDigestDelta)
      f.fake.deliver_all(p, m, v.members);
    last[static_cast<std::size_t>(p)] = m;
  }
  return last;
}

// A checkpoint copies one pointer per frozen snapshot, not its labels, and
// snapshots never change: a process restored from the checkpoint after the
// live one moved through five more views reads every old snapshot as it
// was frozen, and its next freeze is exact.
TEST(Process, CheckpointSharesFrozenSnapshotsAndRestoresThem) {
  Fixture f;
  std::uint32_t epoch = 0;
  std::map<core::ViewId, std::vector<core::Label>> literal;  // order at each exit of 0
  const auto view_with_traffic = [&](const core::Value& a) {
    f.at(0).bcast(a);
    f.fake.deliver_all(0, f.fake.sent[0].back(), {0, 1, 2});
    literal[f.at(0).state().current->id] = f.at(0).state().order;
    exchange_all(f, core::View{core::ViewId{++epoch, 0}, {0, 1, 2}});
  };
  for (int i = 0; i < 3; ++i) view_with_traffic("x" + std::to_string(i));
  f.at(0).bcast("y");
  f.fake.deliver_all(0, f.fake.sent[0].back(), {0, 1, 2});
  const auto cp = f.at(0).checkpoint();
  const auto& live = f.at(0).state().buildorder;
  ASSERT_EQ(cp.st.buildorder.size(), 3u);
  for (const auto& [g, snap] : cp.st.buildorder)
    EXPECT_EQ(snap.get(), live.at(g).get()) << "copied, not shared: " << core::to_string(g);
  const auto at_checkpoint = literal;

  for (int i = 0; i < 5; ++i) view_with_traffic("z" + std::to_string(i));
  ASSERT_EQ(live.size(), 8u);
  for (const auto& [g, ord] : literal) EXPECT_EQ(live.at(g)->labels(), ord);

  const core::ViewId left = cp.st.current->id;
  f.at(0).restore(cp);
  const auto& st = f.at(0).state();
  ASSERT_EQ(st.buildorder.size(), 3u);
  for (const auto& [g, ord] : at_checkpoint) EXPECT_EQ(st.buildorder.at(g)->labels(), ord);
  const auto order = st.order;
  f.at(0).on_newview(core::View{core::ViewId{++epoch, 0}, {0, 1, 2}});
  EXPECT_EQ(st.buildorder.at(left)->labels(), order);
  EXPECT_EQ(st.buildorder.at(left)->tail().size(), 1u)
      << "only y was appended since the last newview";
}

// safe of an exchange message counts only if gprcv here decoded the same
// bytes: a truncated delta that strict decoding drops at gprcv is not
// counted, and under the injected unchecked decode, which accepts it at
// gprcv, it is (as when safe decoded the bytes itself).
TEST(Process, SafeCountsAnExchangeMessageOnlyIfItsGprcvDecodedIt) {
  for (const bool unchecked : {false, true}) {
    SCOPED_TRACE(unchecked ? "unchecked decode" : "strict decode");
    Fixture f;
    for (ProcId p = 0; p < 3; ++p) f.at(p).set_exchange_mode(ExchangeMode::kDigestDelta);
    f.at(0).bcast("a");
    f.fake.deliver_all(0, f.fake.sent[0].back(), {0, 1, 2});
    const core::View v{core::ViewId{1, 0}, {0, 1, 2}};
    f.fake.newview(v);
    for (ProcId p = 0; p < 3; ++p)
      f.fake.deliver_all(p, f.fake.sent[static_cast<std::size_t>(p)].back(), v.members);
    util::Bytes cut = f.fake.sent[1].back().to_bytes();
    cut.pop_back();
    const vs::Payload truncated{std::move(cut)};
    std::optional<util::UncheckedDecodeGuard> guard;
    if (unchecked) guard.emplace();
    f.fake.deliver(1, 0, truncated);
    f.at(0).on_safe(1, truncated);
    EXPECT_EQ(f.at(0).state().exch_decoded.count(1), unchecked ? 1u : 0u);
    EXPECT_EQ(f.at(0).state().safe_exch.count(1), unchecked ? 1u : 0u);
    // A digest's safe counts for nothing either way.
    f.at(0).on_safe(2, f.fake.sent[2][f.fake.sent[2].size() - 2]);
    EXPECT_EQ(f.at(0).state().safe_exch.count(2), 0u);
  }
}

// Digests relative to the last exact exchange (docs/WIRE.md, "State
// exchange"). Each exchange below runs by hand, and each member's digest is
// read off the wire. A view whose members were all in the view just left,
// with the next epoch, gets relative digests. p2, left out of one view,
// comes back to a view two epochs past its last one and sends a whole
// digest, as do the others, whose last view lacked p2, so that exchange is
// exact and the next one relative again. When p2 is left out of a view
// whose epoch its return shares, it cannot tell and sends a relative
// digest; the others still hold that exchange and read it exactly, so
// their deltas ship only what p2 lacks, and the exchange after is whole
// again. A skipped epoch alone also brings back whole digests.
TEST(Process, DigestsAreRelativeToTheLastExactExchange) {
  Fixture f;
  for (ProcId p = 0; p < 3; ++p) f.at(p).set_exchange_mode(ExchangeMode::kDigestDelta);
  f.at(0).bcast("a");
  f.fake.deliver_all(0, f.fake.sent[0].back(), {0, 1, 2});

  // Runs v's exchange; returns each member's digest as sent.
  const auto exchange = [&](const core::View& v) {
    f.fake.newview(v);
    std::map<ProcId, core::SummaryDigest> digests;
    for (ProcId p : v.members) {
      const auto m = f.fake.sent[static_cast<std::size_t>(p)].back();
      digests[p] = std::get<core::SummaryDigest>(*decode_message_ex(m.view()).value);
      f.fake.deliver_all(p, m, v.members);
    }
    for (ProcId p : v.members)
      f.fake.deliver_all(p, f.fake.sent[static_cast<std::size_t>(p)].back(), v.members);
    for (ProcId p : v.members) EXPECT_EQ(f.at(p).state().status, PStatus::kNormal) << "at " << p;
    return digests;
  };
  const auto refs = [](const std::map<ProcId, core::SummaryDigest>& digests) {
    std::map<ProcId, std::optional<core::ViewId>> out;
    for (const auto& [p, d] : digests) out[p] = d.ref;
    return out;
  };
  // Whether p's exchange in g was exact: it keeps g as its ref.
  const auto exact_at = [&](ProcId p, const core::ViewId& g) {
    const auto& held = f.at(p).state().exch_refs;
    return !held.empty() && held.front().view == g;
  };
  using Refs = std::map<ProcId, std::optional<core::ViewId>>;
  const core::ViewId g1{1, 0}, g2{2, 0}, g3{3, 0}, g4{4, 0}, g5{5, 0}, g6{6, 0}, g6b{6, 2},
      g7{7, 0}, g8{8, 0}, g10{10, 0};
  const std::set<ProcId> all{0, 1, 2}, duo{0, 1};

  // The initial view had no exchange: whole digests, exact.
  EXPECT_EQ(refs(exchange({g1, all})), (Refs{{0, {}}, {1, {}}, {2, {}}}));
  for (ProcId p : all) EXPECT_TRUE(exact_at(p, g1)) << "at " << p;
  // Same members: relative to g1, carrying no mark (nothing new).
  const auto d2 = exchange({g2, all});
  EXPECT_EQ(refs(d2), (Refs{{0, g1}, {1, g1}, {2, g1}}));
  for (const auto& [p, d] : d2) EXPECT_TRUE(d.marks.empty()) << "at " << p;
  for (ProcId p : all) EXPECT_TRUE(exact_at(p, g2)) << "at " << p;
  // A subset: relative to g2. p2 misses this exchange.
  EXPECT_EQ(refs(exchange({g3, duo})), (Refs{{0, g2}, {1, g2}}));
  for (ProcId p : duo) EXPECT_TRUE(exact_at(p, g3)) << "at " << p;
  // p2 rejoins: p0 and p1 left g3, which lacks p2, and p2 left g2, two
  // epochs back, so every digest is whole. Exact everywhere.
  EXPECT_EQ(refs(exchange({g4, all})), (Refs{{0, {}}, {1, {}}, {2, {}}}));
  for (ProcId p : all) EXPECT_TRUE(exact_at(p, g4)) << "at " << p;
  // Relative again.
  EXPECT_EQ(refs(exchange({g5, all})), (Refs{{0, g4}, {1, g4}, {2, g4}}));
  for (ProcId p : all) EXPECT_TRUE(exact_at(p, g5)) << "at " << p;
  // p2 is left out of g6, where p0 labels "b", and returns in g6b, which
  // has g6's epoch: p2 sends relative to g5, and p0 and p1, whose last view
  // lacked p2, send whole digests. Refs are mixed, so the exchange is exact
  // nowhere, but p0 and p1 still hold g5 and read p2's digest exactly: p0's
  // delta ships "b", which p2 lacks, and not "a", which all hold.
  EXPECT_EQ(refs(exchange({g6, duo})), (Refs{{0, g5}, {1, g5}}));
  f.at(0).bcast("b");
  f.fake.deliver_all(0, f.fake.sent[0].back(), duo);
  EXPECT_EQ(refs(exchange({g6b, all})), (Refs{{0, {}}, {1, {}}, {2, g5}}));
  for (ProcId p : all) EXPECT_FALSE(exact_at(p, g6b)) << "at " << p;
  const auto delta0 =
      std::get<core::SummaryDelta>(*decode_message_ex(f.fake.sent[0].back().view()).value);
  std::set<std::string> shipped;
  for (const auto& [l, a] : delta0.con) shipped.insert(std::string(a));
  EXPECT_EQ(shipped, (std::set<std::string>{"b"}));
  // Whole digests everywhere, exact; then relative again.
  EXPECT_EQ(refs(exchange({g7, all})), (Refs{{0, {}}, {1, {}}, {2, {}}}));
  for (ProcId p : all) EXPECT_TRUE(exact_at(p, g7)) << "at " << p;
  EXPECT_EQ(refs(exchange({g8, all})), (Refs{{0, g7}, {1, g7}, {2, g7}}));
  // Epoch 9 formed nowhere here: whole digests, exact.
  EXPECT_EQ(refs(exchange({g10, all})), (Refs{{0, {}}, {1, {}}, {2, {}}}));
  for (ProcId p : all) {
    EXPECT_TRUE(exact_at(p, g10)) << "at " << p;
    EXPECT_EQ(f.at(p).state().order, f.at(0).state().order) << "at " << p;
  }
}

// Once every exchange message of a primary view is safe, the safe set gains
// exactly the order prefix establishment placed (as a watermark); a label
// appended after establishment stays unsafe until its own safe.
TEST(Process, SafeExchangeMarksExactlyThePrefixPlacedAtEstablishment) {
  for (const auto mode : {ExchangeMode::kDigestDelta, ExchangeMode::kFullSummary}) {
    SCOPED_TRACE(to_string(mode));
    Fixture f;
    for (ProcId p = 0; p < 3; ++p) f.at(p).set_exchange_mode(mode);
    // "a" is confirmed everywhere in g0; "z" reached only p0.
    f.at(0).bcast("a");
    f.fake.deliver_all(0, f.fake.sent[0].back(), {0, 1, 2});
    f.fake.make_safe(0, f.fake.sent[0].back(), {0, 1, 2});
    f.at(0).bcast("z");
    f.fake.deliver(0, 0, f.fake.sent[0].back());

    const core::View v{core::ViewId{1, 0}, {0, 1, 2}};
    const auto exch = exchange_all(f, v);
    for (ProcId p = 0; p < 3; ++p) {
      const auto& st = f.at(p).state();
      ASSERT_EQ(st.status, PStatus::kNormal) << "at " << p;
      ASSERT_EQ(st.order.size(), 2u) << "at " << p;
      EXPECT_EQ(st.exch_placed, 2u) << "at " << p;
    }
    // A label appended after establishment.
    f.at(1).bcast("c");
    const auto c_msg = f.fake.sent[1].back();
    f.fake.deliver_all(1, c_msg, {0, 1, 2});
    for (ProcId p = 0; p < 3; ++p) ASSERT_EQ(f.at(p).state().order.size(), 3u);

    for (ProcId p = 0; p < 3; ++p) f.fake.make_safe(p, exch[static_cast<std::size_t>(p)], {0, 1, 2});
    for (ProcId p = 0; p < 3; ++p) {
      const auto& st = f.at(p).state();
      EXPECT_EQ(safe_set(f.at(p)), std::set<core::Label>(st.order.begin(), st.order.begin() + 2))
          << "at " << p;
      EXPECT_EQ(st.safe_bits, std::vector<bool>({true, true})) << "at " << p;
      EXPECT_EQ(st.nextconfirm, 3u) << "a and z confirmed, c not yet";
      ASSERT_EQ(f.at(p).delivered().size(), 2u) << "at " << p;
      EXPECT_EQ(f.at(p).delivered()[1].second, "z");
    }
    f.fake.make_safe(1, c_msg, {0, 1, 2});
    for (ProcId p = 0; p < 3; ++p) {
      ASSERT_EQ(f.at(p).delivered().size(), 3u) << "at " << p;
      EXPECT_EQ(f.at(p).delivered()[2].second, "c");
    }
  }
}

// If every exchange message is safe before the view is established, the
// explicit safe_labels still take fullorder(gotstate) over what has
// arrived. safe counts only an exchange message that decoded at gprcv, so
// this needs one that decoded but was not stored: a delta whose ord prefix
// overruns the receiver's base (no correct sender sends one).
TEST(Process, SafeExchangeInUnestablishedViewTakesFullorderOfGotstate) {
  Fixture f;
  for (ProcId p = 0; p < 3; ++p) f.at(p).set_exchange_mode(ExchangeMode::kDigestDelta);
  f.at(0).bcast("a");
  f.fake.deliver_all(0, f.fake.sent[0].back(), {0, 1, 2});
  f.at(2).bcast("b");
  f.fake.deliver(2, 2, f.fake.sent[2].back());

  const core::View v{core::ViewId{1, 0}, {0, 1, 2}};
  f.fake.newview(v);
  for (ProcId p = 0; p < 3; ++p) f.fake.deliver_all(p, f.fake.sent[static_cast<std::size_t>(p)].back(), v.members);
  std::vector<vs::Payload> deltas;
  for (ProcId p = 0; p < 3; ++p) deltas.push_back(f.fake.sent[static_cast<std::size_t>(p)].back());
  // p0 receives its own delta and p2's, and from p1 one it cannot store.
  core::SummaryDelta overrun;
  overrun.ord_prefix = 99;
  const vs::Payload unstored = encode_message(Message{overrun});
  f.fake.deliver(0, 0, deltas[0]);
  f.fake.deliver(1, 0, unstored);
  f.fake.deliver(2, 0, deltas[2]);
  const auto& st = f.at(0).state();
  ASSERT_EQ(st.status, PStatus::kCollect);
  ASSERT_EQ(st.gotstate.size(), 2u);

  core::SummaryMap materialized;
  for (const auto& [q, x] : st.gotstate) materialized.emplace(q, *got_summary(st, q));
  const auto expected = core::fullorder(materialized);
  ASSERT_EQ(expected.size(), 2u) << "a from the base, b from p2's delta";
  f.at(0).on_safe(0, deltas[0]);
  f.at(0).on_safe(1, unstored);
  f.at(0).on_safe(2, deltas[2]);
  EXPECT_EQ(safe_set(f.at(0)), std::set<core::Label>(expected.begin(), expected.end()));
  EXPECT_EQ(st.exch_placed, 0u);
  EXPECT_TRUE(st.safe_bits.empty());

  // p1's own delta arrives late: establishment places both labels, and
  // only the explicit set makes them safe (no bit), so confirmation must
  // read it.
  f.fake.deliver(1, 0, deltas[1]);
  ASSERT_EQ(st.status, PStatus::kNormal);
  ASSERT_EQ(st.order, expected);
  EXPECT_TRUE(st.safe_bits.empty());
  EXPECT_EQ(st.nextconfirm, 3u);
  ASSERT_EQ(f.at(0).delivered().size(), 2u);
}

// is_safe must read the bits the exchange set for its prefix against a
// label's *first* position in order: it then equals the set the prefix used
// to be expanded into, safe_labels plus order[0, exch_placed), even for an
// order holding a duplicate (only a corrupted summary under the injected
// unchecked-decode fault can plant one; here restore does).
TEST(Process, SafePrefixMatchesTheExpandedSetWithDuplicatesInOrder) {
  Fixture f;
  for (ProcId p = 0; p < 3; ++p) f.at(p).set_exchange_mode(ExchangeMode::kDigestDelta);
  f.at(0).bcast("a");
  f.fake.deliver_all(0, f.fake.sent[0].back(), {0, 1, 2});
  f.at(1).bcast("b");
  f.fake.deliver_all(1, f.fake.sent[1].back(), {0, 1, 2});
  const auto exch = exchange_all(f, core::View{core::ViewId{1, 0}, {0, 1, 2}});
  for (ProcId p = 0; p < 3; ++p) f.fake.make_safe(p, exch[static_cast<std::size_t>(p)], {0, 1, 2});
  const auto base = f.at(0).checkpoint();
  ASSERT_EQ(base.st.order.size(), 2u);
  ASSERT_EQ(base.st.safe_bits, std::vector<bool>(2, true));
  const core::Label a = base.st.order[0], b = base.st.order[1];
  const core::Label c{core::ViewId{1, 0}, 1, 2};  // known to no one

  struct Case {
    std::vector<core::Label> order;
    std::size_t prefix;
    std::set<core::Label> explicit_safe;
  };
  const std::vector<Case> cases = {
      {{a, b, a}, 1, {}},   // a's duplicate lies past the prefix
      {{b, a, b}, 1, {}},   // so does b's
      {{a, a, b}, 2, {}},   // a duplicate inside the prefix
      {{b, a, b}, 0, {a}},  // no prefix, one explicit label
      {{a, b, c, b}, 3, {}},
  };
  for (const auto& tc : cases) {
    auto cp = base;
    cp.st.order = tc.order;
    cp.st.exch_placed = tc.prefix;
    cp.st.safe_bits.assign(tc.prefix, true);
    cp.st.safe_labels = tc.explicit_safe;
    f.at(0).restore(cp);
    std::set<core::Label> expanded = tc.explicit_safe;
    expanded.insert(tc.order.begin(), tc.order.begin() + static_cast<std::ptrdiff_t>(tc.prefix));
    for (const auto& l : {a, b, c})
      EXPECT_EQ(f.at(0).is_safe(l), expanded.count(l) != 0)
          << core::to_string(l) << " with prefix " << tc.prefix;
    EXPECT_EQ(safe_set(f.at(0)), expanded);
  }
}

TEST(Process, CheckpointRestoreRoundTripsExchangeState) {
  Fixture f;
  for (ProcId p = 0; p < 3; ++p) f.at(p).set_exchange_mode(ExchangeMode::kDigestDelta);
  f.at(0).bcast("a");
  f.fake.deliver_all(0, f.fake.sent[0].back(), {0, 1, 2});
  exchange_all(f, core::View{core::ViewId{1, 0}, {0, 1, 2}});
  const auto cp = f.at(0).checkpoint();
  ASSERT_FALSE(cp.st.exch_digest.marks.empty());
  EXPECT_EQ(cp.st.exch_digest, core::digest(cp.st.exch_base));
  ASSERT_EQ(cp.st.exch_placed, 1u);
  const auto got = got_summary(cp.st, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->con.size(), 1u) << "the covered base entry is read back in";
  EXPECT_TRUE(cp.st.gotstate.at(1).con.empty()) << "but not stored per sender";

  f.at(1).bcast("b");
  const auto b_msg = f.fake.sent[1].back();
  f.fake.deliver_all(1, b_msg, {0, 1, 2});
  f.fake.make_safe(1, b_msg, {0, 1, 2});
  const auto with_bit = f.at(0).checkpoint();
  ASSERT_EQ(with_bit.st.safe_bits, std::vector<bool>({false, true}));
  exchange_all(f, core::View{core::ViewId{2, 0}, {0, 1, 2}});
  ASSERT_NE(f.at(0).state().exch_digest, cp.st.exch_digest);
  ASSERT_NE(f.at(0).state().exch_placed, cp.st.exch_placed);
  ASSERT_TRUE(f.at(0).state().safe_bits.empty()) << "newview clears the bits";

  f.at(0).restore(with_bit);
  EXPECT_EQ(f.at(0).state().safe_bits, with_bit.st.safe_bits);
  EXPECT_TRUE(f.at(0).is_safe(with_bit.st.order[1]));
  EXPECT_FALSE(f.at(0).is_safe(with_bit.st.order[0]));

  f.at(0).restore(cp);
  EXPECT_EQ(f.at(0).state().exch_digest, cp.st.exch_digest);
  EXPECT_EQ(f.at(0).state().exch_placed, cp.st.exch_placed);
  EXPECT_EQ(f.at(0).state().safe_bits, cp.st.safe_bits);
  EXPECT_EQ(f.at(0).state().exch_base, cp.st.exch_base);
  EXPECT_EQ(f.at(0).state().gotstate, cp.st.gotstate);
  EXPECT_EQ(got_summary(f.at(0).state(), 1), got);
}

// At an establishment, primary or not, the tracer hears msg_tentative once
// for each label the new order holds and the previous order lacked, and
// for no other label: establishment cuts the order and its index back to
// the shared prefix, so a label is new only if neither that prefix nor the
// cut tail held it. The tracer keeps
// one tentative span per label and processor, so it is attached afresh just
// before each exchange, where no earlier milestone can hide a wrong call.
TEST(Process, EstablishmentReportsTentativeExactlyForNewlyPlacedLabels) {
  for (const ExchangeMode mode : {ExchangeMode::kFullSummary, ExchangeMode::kDigestDelta}) {
    SCOPED_TRACE(to_string(mode));
    // Only all three together are a quorum, so {0, 1} is a non-primary view.
    Fixture f(3, std::make_shared<core::ExplicitQuorums>(
                     std::vector<std::set<ProcId>>{{0, 1, 2}}));
    for (ProcId p = 0; p < 3; ++p) f.at(p).set_exchange_mode(mode);
    // Initial view: a reaches everyone, b only 1 and 2, c only 2.
    f.at(0).bcast("a");
    f.fake.deliver_all(0, f.fake.sent[0].back(), {0, 1, 2});
    f.at(1).bcast("b");
    f.fake.deliver_all(1, f.fake.sent[1].back(), {1, 2});
    f.at(2).bcast("c");
    f.fake.deliver_all(2, f.fake.sent[2].back(), {2});

    // Runs the exchange of v under a fresh tracer; returns how many
    // tentative spans it reported.
    const auto establish = [&](const core::View& v) {
      obs::SpanTracer tracer(obs::TraceConfig{true, 1024, ""});
      std::set<core::Label> known;
      std::map<ProcId, std::vector<core::Label>> before;
      for (const ProcId p : v.members) {
        for (const auto& [l, a] : f.at(p).state().content) known.insert(l);
        before[p] = f.at(p).state().order;
        f.at(p).set_tracer(&tracer);
      }
      for (const core::Label& l : known) tracer.msg_labeled(l.origin, l, 0);
      exchange_all(f, v);
      std::size_t reported_total = 0;
      for (const ProcId p : v.members) {
        f.at(p).set_tracer(nullptr);
        const auto& st = f.at(p).state();
        EXPECT_EQ(st.status, PStatus::kNormal) << "at " << p;
        std::vector<std::string> expected, reported;
        for (const core::Label& l : st.order)
          if (std::find(before[p].begin(), before[p].end(), l) == before[p].end())
            expected.push_back(core::to_string(l));
        for (const obs::Span& sp : tracer.spans())
          if (sp.name == "tentative" && sp.proc == p) reported.push_back(sp.arg);
        EXPECT_EQ(reported, expected) << "at " << p;
        reported_total += reported.size();
      }
      return reported_total;
    };

    // Non-primary {0, 1}: shortorder is 1's order [a, b], new to 0 in b.
    const core::View duo{core::ViewId{1, 0}, {0, 1}};
    EXPECT_EQ(establish(duo), 1u);
    ASSERT_FALSE(f.at(0).primary());
    EXPECT_EQ(f.at(0).state().order.size(), 2u);
    // d is labeled in the non-primary view: content only, in no order.
    f.at(0).bcast("d");
    f.fake.deliver_all(0, f.fake.sent[0].back(), {0, 1});
    // Primary {0, 1, 2}: the representative is 2, with [a, b, c], and
    // fullorder appends d. New to 0 and 1: c and d; new to 2: d.
    const core::View all{core::ViewId{2, 0}, {0, 1, 2}};
    EXPECT_EQ(establish(all), 5u);
    ASSERT_TRUE(f.at(0).primary());
    for (ProcId p = 0; p < 3; ++p) EXPECT_EQ(f.at(p).state().order.size(), 4u) << "at " << p;
  }
}

// The partition-and-heal scenario on the VS-machine back end, stepped one
// event at a time: every invariant holds after every step, each view exit
// snapshots the order the process held just before it, and a snapshot never
// changes afterwards. The snapshots share storage with the states copied
// into `before`, so they are compared with literal copies taken at each
// exit.
TEST(Process, BuildorderSnapshotsHoldThroughPartitionAndHeal) {
  harness::WorldConfig cfg;
  cfg.n = 5;
  cfg.backend = harness::Backend::kSpec;
  cfg.seed = 3;
  harness::World world(cfg);
  world.partition_at(sim::msec(50), {{0, 1, 2}, {3, 4}});
  world.bcast_at(sim::msec(200), 0, "maj");
  world.bcast_at(sim::msec(200), 3, "min");
  world.heal_at(sim::msec(400));
  world.bcast_at(sim::msec(600), 4, "post");

  const auto gs = world.global_state();
  std::vector<ProcessState> before(gs.procs.size());
  std::vector<std::map<core::ViewId, std::vector<core::Label>>> frozen(gs.procs.size());
  for (std::size_t p = 0; p < gs.procs.size(); ++p) before[p] = gs.procs[p]->state();
  int exits = 0;
  while (world.simulator().now() < sim::sec(2) && world.simulator().step()) {
    const auto bad = verify::check_all_invariants(gs);
    ASSERT_TRUE(bad.empty()) << "at t=" << world.simulator().now() << ": " << bad.front();
    for (std::size_t p = 0; p < gs.procs.size(); ++p) {
      const auto& now = gs.procs[p]->state();
      for (const auto& [g, ord] : frozen[p])
        EXPECT_EQ(now.buildorder.at(g)->labels(), ord) << "snapshot moved at p" << p;
      if (before[p].current.has_value() && now.current != before[p].current) {
        ++exits;
        const auto old = before[p].current->id;
        if (before[p].builds_current) {
          EXPECT_EQ(now.buildorder.at(old)->labels(), before[p].order) << "at p" << p;
          frozen[p][old] = before[p].order;
        } else {
          EXPECT_EQ(now.buildorder.count(old), 0u) << "at p" << p;
        }
      }
      before[p] = now;
    }
  }
  EXPECT_GE(exits, 10) << "the scenario changes views at every process";
}

TEST(Process, DeliveryCallbackFires) {
  Fixture f;
  std::vector<std::string> seen;
  f.at(2).set_delivery([&](ProcId origin, const core::Value& a) {
    EXPECT_EQ(origin, 0);
    seen.push_back(a);
  });
  f.at(0).bcast("cb");
  const auto payload = f.fake.sent[0][0];
  f.fake.deliver_all(0, payload, {0, 1, 2});
  f.fake.make_safe(0, payload, {0, 1, 2});
  EXPECT_EQ(seen, std::vector<std::string>{"cb"});
}

}  // namespace
}  // namespace vsg::vstoto
