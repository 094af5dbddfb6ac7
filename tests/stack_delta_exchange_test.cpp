// Digest/delta state exchange end to end (docs/WIRE.md, "State
// exchange"): a ring world runs the two-phase protocol by default — digest
// broadcast, then one delta against the meet of all digests — and must
// deliver exactly what the full-summary reference world delivers on the
// same seed, while moving far fewer exchange bytes through crash/rejoin
// churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "core/summary.hpp"
#include "harness/world.hpp"
#include "vstoto/wire.hpp"

namespace vsg {
namespace {

using harness::Backend;
using harness::World;
using harness::WorldConfig;

constexpr auto kFull = vstoto::ExchangeMode::kFullSummary;
constexpr auto kDelta = vstoto::ExchangeMode::kDigestDelta;

WorldConfig config(vstoto::ExchangeMode exchange, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.n = 4;
  cfg.backend = Backend::kTokenRing;
  cfg.exchange = exchange;
  cfg.seed = seed;
  return cfg;
}

// Crash/rejoin churn with steady traffic; returns the world for counter and
// delivery inspection.
void churn(World& world) {
  const int n = world.n();
  for (sim::Time t = sim::msec(200); t < sim::sec(6); t += sim::msec(150))
    for (ProcId p = 0; p < n; ++p) world.bcast_at(t, p, "m" + std::to_string(t / 1000));
  int cycle = 0;
  for (sim::Time t = sim::sec(1); t < sim::sec(5); t += sim::msec(1200)) {
    const ProcId victim = 1 + static_cast<ProcId>(cycle++ % (n - 1));
    world.proc_status_at(t, victim, sim::Status::kBad);
    world.proc_status_at(t + sim::msec(800), victim, sim::Status::kGood);
  }
  world.run_until(sim::sec(12));
}

TEST(DeltaExchange, RingWorldDefaultsToDigestDeltaAndHonorsFullSummary) {
  World by_default(WorldConfig{});
  World full(config(kFull, 5));
  EXPECT_EQ(by_default.stack().process(0).exchange_mode(), kDelta);
  EXPECT_EQ(full.stack().process(0).exchange_mode(), kFull);
}

TEST(DeltaExchange, SpecBackendStaysFullSummary) {
  WorldConfig cfg;
  cfg.backend = Backend::kSpec;
  cfg.exchange = kDelta;  // ignored: the spec backend's verifier needs summaries
  World world(cfg);
  EXPECT_EQ(world.stack().process(0).exchange_mode(), vstoto::ExchangeMode::kFullSummary);
}

TEST(DeltaExchange, SameDeliveriesThroughCrashRejoinChurn) {
  World full(config(kFull, 91));
  World delta(config(kDelta, 91));
  churn(full);
  churn(delta);

  // Identical client outcome at quiescence: every processor delivered the
  // same multiset of (origin, value) pairs under both exchange protocols.
  // (The chosen total order may differ — establishment lands a couple of
  // token laps later in delta mode — so compare content, not order.)
  for (ProcId p = 0; p < full.n(); ++p) {
    std::map<std::pair<ProcId, core::Value>, int> a, b;
    for (const auto& d : full.stack().process(p).delivered()) ++a[d];
    for (const auto& d : delta.stack().process(p).delivered()) ++b[d];
    EXPECT_EQ(a, b) << "processor " << p;
  }
  EXPECT_TRUE(full.check_to_safety().empty());
  EXPECT_TRUE(delta.check_to_safety().empty());
}

TEST(DeltaExchange, DigestAndDeltaCountersMoveOnlyInDeltaMode) {
  World full(config(kFull, 91));
  World delta(config(kDelta, 91));
  churn(full);
  churn(delta);

  const auto count = [](const World& w, const std::string& name) -> std::uint64_t {
    const auto* c = w.metrics().find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  EXPECT_GT(count(full, "to.summaries_sent"), 0u);
  EXPECT_EQ(count(full, "to.digests_sent"), 0u);
  EXPECT_EQ(count(full, "to.deltas_sent"), 0u);

  EXPECT_EQ(count(delta, "to.summaries_sent"), 0u);
  EXPECT_GT(count(delta, "to.digests_sent"), 0u);
  EXPECT_GT(count(delta, "to.deltas_sent"), 0u);
  // One delta per member per completed collection; digests outnumber them.
  EXPECT_GE(count(delta, "to.digests_sent"), count(delta, "to.deltas_sent"));

  // The membership layer's payload census agrees with the process counters.
  EXPECT_GT(count(full, "ring.state_exchange_bytes.summary"), 0u);
  EXPECT_EQ(count(full, "ring.state_exchange_bytes.digest"), 0u);
  EXPECT_EQ(count(delta, "ring.state_exchange_bytes.summary"), 0u);
  EXPECT_GT(count(delta, "ring.state_exchange_bytes.digest"), 0u);
  EXPECT_GT(count(delta, "ring.state_exchange_bytes.delta"), 0u);
}

TEST(DeltaExchange, ExchangeBytesDropByAnOrderOfMagnitude) {
  World full(config(kFull, 91));
  World delta(config(kDelta, 91));
  churn(full);
  churn(delta);
  const auto count = [](const World& w, const std::string& name) -> std::uint64_t {
    const auto* c = w.metrics().find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  // Exchange payload bytes handed to gpsnd (the token bytes around them are
  // laid out identically under both modes).
  const std::uint64_t before = count(full, "ring.state_exchange_bytes.summary");
  const std::uint64_t after = count(delta, "ring.state_exchange_bytes.digest") +
                              count(delta, "ring.state_exchange_bytes.delta");
  ASSERT_GT(after, 0u);
  EXPECT_GE(before / after, 5u)
      << "summaries grow with history, digests/deltas do not: " << before << " vs " << after;
}

// Partition/merge and crash/rejoin churn on a 5-processor world with
// steady traffic. {0,1} labels values in a non-primary view and hands them
// to 2 in another non-primary view, so the primary {0,1,2} finds them in
// every member's content, in no member's order, and in no delta: only the
// shared base supplies them to fullorder.
void partition_merge_crash(World& world) {
  const int n = world.n();
  for (sim::Time t = sim::msec(200); t < sim::sec(9); t += sim::msec(100))
    for (ProcId p = 0; p < n; ++p) world.bcast_at(t, p, "m" + std::to_string(t / 1000));
  world.partition_at(sim::sec(1), {{0, 1}, {2}, {3, 4}});
  world.partition_at(sim::msec(2500), {{0}, {1, 2}, {3, 4}});
  world.partition_at(sim::sec(4), {{0, 1, 2}, {3, 4}});
  world.heal_at(sim::msec(5500));
  world.proc_status_at(sim::sec(7), 2, sim::Status::kBad);
  world.proc_status_at(sim::msec(7800), 2, sim::Status::kGood);
}

// Receivers store each delta as it came and share their frozen base across
// gotstate (vstoto::got_summary). At every establishment through partition/
// merge and crash/rejoin churn, each member's materialized gotstate[q] must
// equal the old representation, core::apply_delta(delta_q, exch_base); the
// stored con entries must be exactly the deltas' con entries; and the order
// establishment placed must be what fullorder/shortorder give over the old
// representation. The Lemma 6.x suites run on the spec backend, which always
// exchanges full summaries, so this is the check that covers the delta
// representation.
TEST(DeltaExchange, SharedBaseGotstateMatchesApplyDeltaAtEveryEstablishment) {
  WorldConfig cfg = config(kDelta, 17);
  cfg.n = 5;
  World world(cfg);
  const int n = world.n();

  // Every delta handed to VS, keyed by (sender, the sender's view then).
  std::map<ProcId, core::ViewId> view_of;
  std::map<std::pair<ProcId, core::ViewId>, core::SummaryDelta> deltas;
  world.recorder().subscribe([&](const trace::TimedEvent& te) {
    if (const auto* nv = std::get_if<trace::NewViewEvent>(&te.event)) {
      view_of[nv->p] = nv->view().id;
    } else if (const auto* snd = std::get_if<trace::GpsndEvent>(&te.event)) {
      auto msg = vstoto::decode_message_ex(snd->m.view());
      if (!msg.ok()) return;
      if (const auto* dl = std::get_if<core::SummaryDelta>(&*msg.value))
        deltas.insert_or_assign({snd->p, view_of.at(snd->p)}, *dl);
    }
  });

  partition_merge_crash(world);

  std::map<ProcId, core::ViewId> checked;  // last view checked per processor
  int establishments = 0, with_unplaced = 0;
  std::size_t carried_total = 0, from_base_only = 0;
  sim::Simulator& sim = world.simulator();
  while (sim.now() < sim::sec(12) && sim.step()) {
    for (ProcId p = 0; p < n; ++p) {
      const auto& proc = world.stack().process(p);
      const auto& st = proc.state();
      // The initial view is established by fiat, without an exchange.
      if (!st.current.has_value() || st.status != vstoto::PStatus::kNormal ||
          st.current->id == core::ViewId::initial())
        continue;
      const core::ViewId g = st.current->id;
      const auto seen = checked.find(p);
      if (seen != checked.end() && seen->second == g) continue;
      checked.insert_or_assign(p, g);
      ++establishments;

      std::size_t stored = 0, carried = 0;
      core::SummaryMap reference;
      ASSERT_EQ(st.gotstate.size(), st.current->members.size());
      for (const ProcId q : st.current->members) {
        const auto dl = deltas.find({q, g});
        ASSERT_NE(dl, deltas.end()) << "no delta from p" << q << " in " << core::to_string(g);
        const auto x = core::apply_delta(dl->second, st.exch_base);
        ASSERT_TRUE(x.has_value());
        EXPECT_EQ(vstoto::got_summary(st, q), x)
            << "p" << p << " gotstate[p" << q << "] in " << core::to_string(g);
        stored += st.gotstate.at(q).con.size();
        carried += dl->second.con.size();
        reference.emplace(q, *x);
      }
      EXPECT_EQ(stored, carried) << "p" << p << " in " << core::to_string(g);
      carried_total += carried;

      const std::vector<core::Label> placed(
          st.order.begin(), st.order.begin() + static_cast<std::ptrdiff_t>(st.exch_placed));
      const auto expected =
          proc.primary() ? core::fullorder(reference) : core::shortorder(reference);
      EXPECT_EQ(placed, expected) << "p" << p << " in " << core::to_string(g);
      // Establishment cut and extended order in place; unplaced followed.
      const std::set<core::Label> in_order(st.order.begin(), st.order.end());
      std::vector<core::Label> unplaced;
      for (const auto& [l, a] : st.content)
        if (in_order.count(l) == 0) unplaced.push_back(l);
      EXPECT_EQ(proc.unplaced(), unplaced) << "p" << p << " in " << core::to_string(g);
      with_unplaced += unplaced.empty() ? 0 : 1;
      const std::size_t short_len = core::shortorder(reference).size();
      for (std::size_t i = short_len; i < placed.size(); ++i) {
        bool in_delta = false;
        for (const auto& [q, x] : st.gotstate) in_delta |= x.con.count(placed[i]) != 0;
        if (!in_delta) ++from_base_only;
      }
    }
  }
  EXPECT_GE(establishments, 4 * n) << "the schedule must re-form views repeatedly";
  EXPECT_GT(carried_total, 0u) << "some deltas must carry content";
  EXPECT_GT(from_base_only, 0u) << "some placed labels must come from the shared base alone";
  EXPECT_GT(with_unplaced, 0) << "some establishment must leave content out of order";
  EXPECT_TRUE(world.check_to_safety().empty());
}

// Crash/rejoin churn on a 5-processor world with steady traffic, one
// victim at a time, each down for 800 ms. The last rejoin is at 7.8 s; two
// more view changes follow, and then a third whose members were all in the
// view before it.
constexpr sim::Time kLastRejoin = sim::msec(7800);
constexpr std::pair<ProcId, int> kCrashes[] = {{1, 1000}, {4, 3000}, {3, 5000}, {2, 7000},
                                               {1, 9500}};

void crash_rejoin(World& world) {
  const int n = world.n();
  for (sim::Time t = sim::msec(200); t < sim::sec(13); t += sim::msec(100))
    for (ProcId p = 0; p < n; ++p) world.bcast_at(t, p, "m" + std::to_string(t / 100));
  for (const auto& [victim, at] : kCrashes) {
    world.proc_status_at(sim::msec(at), victim, sim::Status::kBad);
    world.proc_status_at(sim::msec(at + 800), victim, sim::Status::kGood);
  }
  world.proc_status_at(sim::sec(12), 3, sim::Status::kBad);
}

// Digests relative to the last exact exchange, end to end. A member that
// was down while the others formed views without it comes back either to
// a view whose epoch skips past its last one, and sends a whole digest, or
// to one that shares the epoch of the view the others formed without it,
// and sends a digest relative to the exchange before; the others, whose
// last view lacked it, send whole digests and still hold that exchange.
// Either way every member reads every digest exactly, so no delta ships a
// label that every member's digest covers. A mixed exchange is exact
// nowhere; then every member sends whole digests, so within two views of
// the last rejoin every exchange is exact again, and relative digests
// return. The deliveries match the full-summary exchange on the same
// schedule.
TEST(DeltaExchange, AMemberThatMissesAnExchangeIsExactAgainWithinTwoViews) {
  WorldConfig cfg = config(kDelta, 29);
  cfg.n = 5;
  World world(cfg);
  WorldConfig full_cfg = config(kFull, 29);
  full_cfg.n = 5;
  World full(full_cfg);
  const int n = world.n();

  int relative_late = 0;  // relative digests sent after the last rejoin's exchange
  // Per processor and view, the whole digest it advertised; the labels the
  // deltas shipped, and those every member's advertised digest covered.
  std::map<std::pair<ProcId, core::ViewId>, core::SummaryDigest> advertised;
  int shipped = 0, redundant = 0;
  world.recorder().subscribe([&](const trace::TimedEvent& te) {
    const auto* snd = std::get_if<trace::GpsndEvent>(&te.event);
    if (snd == nullptr) return;
    const auto msg = vstoto::decode_message_ex(snd->m.view());
    if (!msg.ok()) return;
    const auto& st = world.stack().process(snd->p).state();
    if (const auto* g = std::get_if<core::SummaryDigest>(&*msg.value)) {
      advertised[{snd->p, st.current->id}] = st.exch_digest;
      if (te.at >= kLastRejoin + sim::sec(1) && g->ref.has_value()) ++relative_late;
    } else if (const auto* dl = std::get_if<core::SummaryDelta>(&*msg.value)) {
      for (const auto& [l, a] : dl->con) {
        ++shipped;
        bool lacked = false;
        for (const ProcId r : st.current->members) {
          const auto it = advertised.find({r, st.current->id});
          ASSERT_NE(it, advertised.end()) << "p" << r << " advertised no digest";
          const auto& marks = it->second.marks;
          const core::LabelStream s{l.id, l.origin};
          const auto m =
              std::ranges::lower_bound(marks, s, {}, &core::StreamMarks::value_type::first);
          lacked |= m == marks.end() || m->first != s || m->second < l.seqno;
        }
        redundant += lacked ? 0 : 1;
      }
    }
  });
  crash_rejoin(world);
  crash_rejoin(full);

  // Per processor, in view order, each exchange whose meet it computed
  // after the last rejoin: whether it was exact (the process then holds
  // that exchange as its newest). inexact counts every inexact exchange.
  std::vector<std::map<core::ViewId, bool>> late(static_cast<std::size_t>(n));
  std::set<std::pair<ProcId, core::ViewId>> seen;
  int inexact = 0;
  sim::Simulator& sim = world.simulator();
  while (sim.now() < sim::sec(15) && sim.step()) {
    for (ProcId p = 0; p < n; ++p) {
      const auto& st = world.stack().process(p).state();
      if (!st.current.has_value() || !st.delta_sent || !seen.emplace(p, st.current->id).second)
        continue;
      const bool ok = !st.exch_refs.empty() && st.exch_refs.front().view == st.current->id;
      inexact += ok ? 0 : 1;
      if (sim.now() >= kLastRejoin) late[static_cast<std::size_t>(p)].emplace(st.current->id, ok);
    }
  }
  full.run_until(sim::sec(15));

  EXPECT_GT(shipped, 0) << "some deltas must carry content";
  EXPECT_EQ(redundant, 0) << "a delta shipped labels every member held";
  EXPECT_GT(inexact, 0) << "some exchange must mix relative and whole digests";
  for (ProcId p = 0; p < n; ++p) {
    const auto& views = late[static_cast<std::size_t>(p)];
    ASSERT_GE(views.size(), 2u) << "p" << p;
    std::size_t i = 0;
    for (const auto& [g, ok] : views)
      EXPECT_TRUE(ok || i++ == 0) << "p" << p << ": inexact " << core::to_string(g)
                                  << " more than one view after the last rejoin";
  }
  EXPECT_GT(relative_late, 0) << "relative digests must return after the last rejoin";

  for (ProcId p = 0; p < n; ++p) {
    std::map<std::pair<ProcId, core::Value>, int> a, b;
    for (const auto& d : full.stack().process(p).delivered()) ++a[d];
    for (const auto& d : world.stack().process(p).delivered()) ++b[d];
    EXPECT_EQ(a, b) << "processor " << p;
    EXPECT_GT(b.size(), 0u) << "processor " << p;
  }
  EXPECT_TRUE(world.check_to_safety().empty());
  EXPECT_TRUE(full.check_to_safety().empty());
}

// Figure 9's safe-labels at every process of a World, re-checked after
// every simulator step that delivered gprcv, safe or newview to it, against
// two expansions of what Process::is_safe reads:
//  - its stored parts: safe_labels ∪ {order[i] : bit i of safe_bits set};
//  - the trace: the labels whose safe(<l, a>) reached p in its current view
//    while that view was primary, plus order[0, exch_placed) once every
//    exchange message of the established primary view is safe, plus
//    safe_labels (which also takes fullorder(gotstate) when the exchange is
//    all safe before establishment, a case the trace cannot rebuild).
class SafeLabelsWatch {
 public:
  explicit SafeLabelsWatch(World& world)
      : world_(world), traced_(static_cast<std::size_t>(world.n())),
        dirty_(static_cast<std::size_t>(world.n()), false) {
    world.recorder().subscribe([this](const trace::TimedEvent& te) {
      if (const auto* nv = std::get_if<trace::NewViewEvent>(&te.event)) {
        traced_[static_cast<std::size_t>(nv->p)].clear();
        dirty_[static_cast<std::size_t>(nv->p)] = true;
      } else if (const auto* rcv = std::get_if<trace::GprcvEvent>(&te.event)) {
        dirty_[static_cast<std::size_t>(rcv->dst)] = true;
      } else if (const auto* sf = std::get_if<trace::SafeEvent>(&te.event)) {
        dirty_[static_cast<std::size_t>(sf->dst)] = true;
        const auto m = vstoto::decode_message_ex(sf->m.view());
        const auto* lv = m.ok() ? std::get_if<vstoto::LabeledValue>(&*m.value) : nullptr;
        if (lv != nullptr && world_.stack().process(sf->dst).primary())
          traced_[static_cast<std::size_t>(sf->dst)].insert(lv->label);
      }
    });
  }

  void check() {
    for (ProcId p = 0; p < world_.n(); ++p) {
      if (!dirty_[static_cast<std::size_t>(p)]) continue;
      dirty_[static_cast<std::size_t>(p)] = false;
      const auto& proc = world_.stack().process(p);
      const auto& st = proc.state();

      std::set<core::Label> stored = st.safe_labels;
      for (std::size_t i = 0; i < st.safe_bits.size(); ++i)
        if (st.safe_bits[i]) stored.insert(st.order.at(i));

      std::set<core::Label> traced = traced_[static_cast<std::size_t>(p)];
      traced.insert(st.safe_labels.begin(), st.safe_labels.end());
      if (st.current.has_value() && proc.primary() && st.status == vstoto::PStatus::kNormal &&
          st.safe_exch == st.current->members && st.exch_placed != 0) {
        traced.insert(st.order.begin(),
                      st.order.begin() + static_cast<std::ptrdiff_t>(st.exch_placed));
        ++watermarked;
      }

      if (std::find(st.safe_bits.begin(), st.safe_bits.end(), true) != st.safe_bits.end())
        ++with_bits;
      if (!st.safe_labels.empty()) ++with_explicit;
      std::set<core::Label> known = traced;
      known.insert(st.order.begin(), st.order.end());
      for (const auto& [l, a] : st.content) known.insert(l);
      for (const auto& l : known) {
        ASSERT_EQ(proc.is_safe(l), stored.count(l) != 0)
            << "stored parts, p" << p << " " << core::to_string(l);
        ASSERT_EQ(proc.is_safe(l), traced.count(l) != 0)
            << "trace, p" << p << " " << core::to_string(l);
      }
    }
  }

  int watermarked = 0;    // checks that saw an all-safe exchange prefix
  int with_bits = 0;      // ... a set bit
  int with_explicit = 0;  // ... a nonempty safe_labels

 private:
  World& world_;
  std::vector<std::set<core::Label>> traced_;
  std::vector<bool> dirty_;
};

// Two state-exchange representations against their expanded forms, through
// the same churn:
//  - newview brings the previous exchange base up to content instead of
//    copying content, so the base it froze must equal local_summary() as
//    it stood when newview arrived (checked when the digest goes out, the
//    first thing newview does after freezing);
//  - safety is stored as explicit labels and per-position bits (set for
//    the exchange's whole prefix once it is safe), so Process::is_safe
//    must equal both expansions SafeLabelsWatch builds, at every step.
TEST(DeltaExchange, IncrementalFreezeAndSafeWatermarkMatchTheirExpandedForms) {
  WorldConfig cfg = config(kDelta, 17);
  cfg.n = 5;
  World world(cfg);
  const int n = world.n();
  const auto& stack = world.stack();

  std::map<ProcId, core::Summary> at_newview;
  int freezes = 0;
  world.recorder().subscribe([&](const trace::TimedEvent& te) {
    if (const auto* nv = std::get_if<trace::NewViewEvent>(&te.event)) {
      at_newview.insert_or_assign(nv->p, stack.process(nv->p).local_summary());
    } else if (const auto* snd = std::get_if<trace::GpsndEvent>(&te.event)) {
      const auto frozen = at_newview.find(snd->p);
      if (frozen == at_newview.end()) return;
      EXPECT_EQ(stack.process(snd->p).state().exch_base, frozen->second)
          << "p" << snd->p << " at t=" << te.at;
      at_newview.erase(frozen);
      ++freezes;
    }
  });
  SafeLabelsWatch watch(world);
  partition_merge_crash(world);

  sim::Simulator& sim = world.simulator();
  while (sim.now() < sim::sec(12) && sim.step()) {
    watch.check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(freezes, 4 * n) << "the schedule must re-form views repeatedly";
  EXPECT_GT(watch.watermarked, 0) << "some primary view must reach its safe watermark";
  EXPECT_GT(watch.with_bits, 0) << "some label must become safe by position";
  EXPECT_TRUE(world.check_to_safety().empty());
}

// One n=8 primary view with steady traffic and no state exchange: every
// safe finds its label in order, so safety is all bits, the explicit set
// stays empty, and every label is confirmed and delivered everywhere.
TEST(SafeBits, SteadyPrimaryConfirmsEveryLabelByPosition) {
  WorldConfig cfg = config(kDelta, 23);
  cfg.n = 8;
  World world(cfg);
  SafeLabelsWatch watch(world);
  for (sim::Time t = sim::msec(100); t < sim::sec(2); t += sim::msec(50))
    for (ProcId p = 0; p < cfg.n; ++p) world.bcast_at(t, p, "s" + std::to_string(t));

  sim::Simulator& sim = world.simulator();
  while (sim.now() < sim::sec(4) && sim.step()) {
    watch.check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(watch.with_bits, 0);
  EXPECT_EQ(watch.with_explicit, 0) << "no safe may fall back to the explicit set";
  EXPECT_EQ(watch.watermarked, 0) << "no state exchange ran";
  for (ProcId p = 0; p < cfg.n; ++p) {
    const auto& proc = world.stack().process(p);
    EXPECT_EQ(proc.state().current->id, core::ViewId::initial()) << "p" << p;
    EXPECT_EQ(proc.state().order.size(), 38u * 8u) << "p" << p;
    EXPECT_EQ(proc.delivered().size(), proc.state().order.size()) << "p" << p;
  }
  EXPECT_TRUE(world.check_to_safety().empty());
}

}  // namespace
}  // namespace vsg
