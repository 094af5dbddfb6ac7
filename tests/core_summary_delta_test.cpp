// Anti-entropy digest/delta algebra (docs/WIRE.md, "State exchange"):
// digest watermarks, the meet of digests, and the central round-trip
// property — apply_delta(delta(a, digest(b)), b) reconstructs a exactly on
// ord/next/high and up to union-equivalence on con — under the protocol
// invariant the exchange relies on (confirmed prefixes agree).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/summary.hpp"
#include "core_establish_oracle.hpp"
#include "util/rng.hpp"

namespace vsg::core {
namespace {

Label lab(std::uint64_t epoch, std::uint32_t seqno, ProcId origin) {
  return Label{ViewId{epoch, 0}, seqno, origin};
}

// allcontent is a partial function (Lemma 6.5): every holder of a label
// holds the same value. Deriving the value from the label keeps randomly
// generated summaries consistent with that invariant.
Value value_of(const Label& l) {
  return "v" + std::to_string(l.id.epoch) + ":" + std::to_string(l.origin) + ":" +
         std::to_string(l.seqno);
}

TEST(SummaryDigest, EmptySummaryDigestsToEmptyAdvertisement) {
  const SummaryDigest d = digest(Summary{});
  EXPECT_EQ(d.next, 1u);
  EXPECT_EQ(d.ord_len, 0u);
  EXPECT_FALSE(d.high.has_value());
  EXPECT_TRUE(d.marks.empty());
}

TEST(SummaryDigest, WatermarkIsLargestDensePrefixPerStream) {
  Summary x;
  // Stream (1,0): seqnos 1,2,3 dense; stream (1,1): 1 then a gap at 2;
  // stream (2,0): starts at 2 — no prefix at all.
  for (std::uint32_t s : {1u, 2u, 3u}) x.con.emplace(lab(1, s, 0), value_of(lab(1, s, 0)));
  x.con.emplace(lab(1, 1, 1), value_of(lab(1, 1, 1)));
  x.con.emplace(lab(1, 3, 1), value_of(lab(1, 3, 1)));
  x.con.emplace(lab(2, 2, 0), value_of(lab(2, 2, 0)));
  const SummaryDigest d = digest(x);
  // Zero-watermark streams, such as (2,0), are absent.
  EXPECT_EQ(d.marks, (StreamMarks{{{ViewId{1, 0}, 0}, 3u}, {{ViewId{1, 0}, 1}, 1u}}));
}

TEST(SummaryDigest, MeetIsPointwiseWeakest) {
  SummaryDigest a;
  a.next = 5;
  a.ord_len = 7;
  a.high = ViewId{3, 0};
  a.marks = {{{ViewId{1, 0}, 0}, 4}, {{ViewId{1, 0}, 1}, 2}};
  SummaryDigest b;
  b.next = 3;
  b.ord_len = 9;
  b.marks = {{{ViewId{1, 0}, 0}, 6}};

  const SummaryDigest m = meet(a, b);
  EXPECT_EQ(m.next, 3u);
  EXPECT_EQ(m.ord_len, 7u);
  // high is engaged only when both sides hold a primary: bottom is the
  // minimum of the paper's G_bot order.
  EXPECT_FALSE(m.high.has_value());
  EXPECT_EQ(m.marks, (StreamMarks{{{ViewId{1, 0}, 0}, 4u}}));

  // Commutative and idempotent.
  EXPECT_EQ(meet(a, b), meet(b, a));
  EXPECT_EQ(meet(a, a), a);
}

TEST(SummaryDelta, SelfDeltaShipsOnlyTheUnconfirmedTail) {
  Summary a;
  for (std::uint32_t s : {1u, 2u, 3u, 4u}) {
    a.con.emplace(lab(1, s, 0), value_of(lab(1, s, 0)));
    a.ord.push_back(lab(1, s, 0));
  }
  a.next = 3;  // ord[0..2) confirmed
  a.high = ViewId{1, 0};

  const SummaryDelta dl = delta(a, digest(a));
  EXPECT_EQ(dl.next, 3u);
  EXPECT_EQ(dl.high, a.high);
  EXPECT_EQ(dl.ord_prefix, 2u);
  EXPECT_EQ(dl.ord_suffix, (std::vector<Label>{lab(1, 3, 0), lab(1, 4, 0)}));
  // Everything in con sits below the watermark: nothing re-ships.
  EXPECT_TRUE(dl.con.empty());

  const auto back = apply_delta(dl, a);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, a);
}

TEST(SummaryDelta, ApplyRejectsOvershootingPrefix) {
  SummaryDelta dl;
  dl.ord_prefix = 2;
  EXPECT_FALSE(apply_delta(dl, Summary{}).has_value());
}

TEST(SummaryDelta, RandomizedRoundTripReconstructsUpToUnionEquivalence) {
  util::Rng rng(88);
  for (int round = 0; round < 2000; ++round) {
    // A shared label pool and a common confirmed prefix: the exchange's
    // soundness rests on TO safety (confirmed prefixes never diverge), so
    // generated pairs honor it — a.ord and b.ord share a prefix at least as
    // long as either confirmed region, then diverge freely.
    std::vector<Label> pool;
    for (std::uint64_t epoch : {1u, 2u})
      for (ProcId origin = 0; origin < 3; ++origin)
        for (std::uint32_t s = 1; s <= 4; ++s) pool.push_back(lab(epoch, s, origin));

    const std::size_t common_len = rng.below(7);
    std::vector<Label> common;
    for (std::size_t i = 0; i < common_len; ++i)
      common.push_back(pool[rng.below(pool.size())]);

    auto make = [&](std::uint64_t salt) {
      Summary x;
      x.ord = common;
      for (std::uint64_t i = rng.below(4); i > 0; --i)
        x.ord.push_back(pool[rng.below(pool.size())]);
      x.next = 1 + static_cast<std::uint32_t>(rng.below(common_len + 1));
      if (rng.chance(0.5)) x.high = ViewId{1 + rng.below(3), 0};
      // Random con: some dense prefixes, some gapped tails.
      for (std::uint64_t i = rng.below(12) + salt % 2; i > 0; --i) {
        const Label l = pool[rng.below(pool.size())];
        x.con.emplace(l, value_of(l));
      }
      return x;
    };
    const Summary a = make(round);
    const Summary b = make(round + 1);

    const auto got = apply_delta(delta(a, digest(b)), b);
    ASSERT_TRUE(got.has_value()) << "round " << round;
    EXPECT_EQ(got->next, a.next) << "round " << round;
    EXPECT_EQ(got->high, a.high) << "round " << round;
    EXPECT_EQ(got->ord, a.ord) << "round " << round;
    // con: everything a knew arrives intact...
    for (const auto& [l, v] : a.con) {
      auto it = got->con.find(l);
      ASSERT_TRUE(it != got->con.end()) << "round " << round << " lost " << to_string(l);
      EXPECT_EQ(it->second, v);
    }
    // ...and every extra entry is one the receiver already held, so a
    // union-style consumer (knowncontent) cannot tell the difference.
    for (const auto& [l, v] : got->con) {
      if (a.con.count(l) != 0) continue;
      auto it = b.con.find(l);
      ASSERT_TRUE(it != b.con.end()) << "round " << round << " invented " << to_string(l);
      EXPECT_EQ(it->second, v);
    }
  }
}

TEST(SummaryDelta, MeetOfDigestsIsSoundForEveryPeer) {
  // A delta computed against meet(d1, d2) must apply cleanly at BOTH peers
  // and reconstruct the same ord/next/high — the broadcast-delta argument.
  util::Rng rng(99);
  for (int round = 0; round < 500; ++round) {
    std::vector<Label> pool;
    for (ProcId origin = 0; origin < 2; ++origin)
      for (std::uint32_t s = 1; s <= 5; ++s) pool.push_back(lab(1, s, origin));
    const std::size_t common_len = rng.below(5);
    std::vector<Label> common;
    for (std::size_t i = 0; i < common_len; ++i)
      common.push_back(pool[rng.below(pool.size())]);
    auto make = [&]() {
      Summary x;
      x.ord = common;
      for (std::uint64_t i = rng.below(3); i > 0; --i)
        x.ord.push_back(pool[rng.below(pool.size())]);
      x.next = 1 + static_cast<std::uint32_t>(rng.below(common_len + 1));
      for (std::uint64_t i = rng.below(8); i > 0; --i) {
        const Label l = pool[rng.below(pool.size())];
        x.con.emplace(l, value_of(l));
      }
      return x;
    };
    const Summary a = make(), b1 = make(), b2 = make();
    const SummaryDelta dl = delta(a, meet(digest(b1), digest(b2)));
    const auto at1 = apply_delta(dl, b1);
    const auto at2 = apply_delta(dl, b2);
    ASSERT_TRUE(at1.has_value() && at2.has_value()) << "round " << round;
    EXPECT_EQ(at1->ord, a.ord);
    EXPECT_EQ(at2->ord, a.ord);
    EXPECT_EQ(at1->next, a.next);
    EXPECT_EQ(at2->next, a.next);
    EXPECT_EQ(at1->high, a.high);
    EXPECT_EQ(at2->high, a.high);
    for (const auto& [l, v] : a.con) {
      ASSERT_EQ(at1->con.count(l), 1u) << "round " << round;
      ASSERT_EQ(at2->con.count(l), 1u) << "round " << round;
    }
  }
}

// The shared-base representation of gotstate: an entry is the delta as it
// came (or, from the full-summary exchange, a whole summary with
// ord_prefix 0), with_base reads its ord prefix and the receiver's covered
// base entries back through the base, and establish() over the stored map
// equals the one-argument shortorder/fullorder over the materialized map and
// over the apply_delta-reconstructed one (the reference representation).
// Entries carry different ord prefixes: deltas against the weakest digest,
// against a weaker one, and whole summaries.
TEST(SharedBase, StoredEntriesMaterializeToApplyDeltaAndOrderAlike) {
  util::Rng rng(41);
  int rep_shorter = 0, rep_longest = 0, with_full = 0, full_mode = 0;
  for (int round = 0; round < 1000; ++round) {
    std::vector<Label> pool;
    for (std::uint64_t epoch : {1u, 2u})
      for (ProcId origin = 0; origin < 3; ++origin)
        for (std::uint32_t s = 1; s <= 4; ++s) pool.push_back(lab(epoch, s, origin));
    const std::size_t common_len = rng.below(6);
    std::vector<Label> common;
    for (std::size_t i = 0; i < common_len; ++i)
      common.push_back(pool[rng.below(pool.size())]);
    auto make = [&]() {
      Summary x;
      x.ord = common;
      for (std::uint64_t i = rng.below(3); i > 0; --i)
        x.ord.push_back(pool[rng.below(pool.size())]);
      x.next = 1 + static_cast<std::uint32_t>(rng.below(common_len + 1));
      if (rng.chance(0.5)) x.high = ViewId{1 + rng.below(3), 0};
      for (std::uint64_t i = rng.below(12); i > 0; --i) {
        const Label l = pool[rng.below(pool.size())];
        x.con.emplace(l, value_of(l));
      }
      return x;
    };
    // Member 0 is the receiver; its own summary is the frozen base. In a
    // full-summary round (as under ExchangeMode::kFullSummary) every entry
    // is a whole summary and the receiver's digest has no marks.
    std::vector<Summary> members;
    for (int i = 0; i < 4; ++i) members.push_back(make());
    const Summary& base = members[0];
    const bool all_full = rng.chance(0.2);
    const SummaryDigest own = all_full ? SummaryDigest{} : digest(base);
    SummaryDigest weakest = digest(base);
    for (const auto& x : members) weakest = meet(weakest, digest(x));
    // A laggard's digest: fewer confirmed labels, so a shorter shared prefix.
    SummaryDigest weaker = weakest;
    weaker.next = 1 + static_cast<std::uint32_t>(rng.below(weakest.next));

    StoredMap stored;
    SummaryMap materialized, rebuilt;
    std::size_t delta_con = 0;
    bool some_full = false;
    for (ProcId q = 0; q < static_cast<ProcId>(members.size()); ++q) {
      const Summary& x = members[static_cast<std::size_t>(q)];
      if (all_full || rng.chance(0.2)) {
        const SummaryDelta entry = full_entry(x, base);
        const auto shared = std::ranges::mismatch(x.ord, base.ord).in1 - x.ord.begin();
        EXPECT_EQ(entry.ord_prefix, static_cast<std::uint32_t>(shared)) << "round " << round;
        const auto reference = all_full ? std::optional(x) : apply_delta(entry, base);
        ASSERT_TRUE(reference.has_value());
        EXPECT_EQ(with_base(entry, base, own), *reference) << "round " << round;
        delta_con += x.con.size();
        some_full = true;
        stored.emplace(q, entry);
        rebuilt.emplace(q, *reference);
      } else {
        const SummaryDelta dl = delta(x, rng.chance(0.5) ? weakest : weaker);
        const auto entry = delta_entry(dl, base);
        const auto reference = apply_delta(dl, base);
        ASSERT_TRUE(entry.has_value() && reference.has_value()) << "round " << round;
        EXPECT_EQ(*entry, dl) << "stored as it came, round " << round;
        EXPECT_EQ(with_base(*entry, base, own), *reference) << "round " << round;
        delta_con += dl.con.size();
        stored.emplace(q, *entry);
        rebuilt.emplace(q, *reference);
      }
      materialized.emplace(q, with_base(stored.at(q), base, own));
    }
    std::size_t stored_con = 0;
    for (const auto& [q, x] : stored) stored_con += x.con.size();
    EXPECT_EQ(stored_con, delta_con) << "round " << round;

    EXPECT_EQ(chosenrep(stored), chosenrep(materialized)) << "round " << round;
    EXPECT_EQ(maxprimary(stored), maxprimary(materialized)) << "round " << round;
    EXPECT_EQ(maxnextconfirm(stored), maxnextconfirm(materialized)) << "round " << round;
    const auto short_placed = establish_from(stored, base, own, false);
    EXPECT_EQ(short_placed, shortorder(materialized)) << "round " << round;
    EXPECT_EQ(short_placed, shortorder(rebuilt)) << "round " << round;
    const auto placed = establish_from(stored, base, own, true);
    EXPECT_EQ(placed, fullorder(materialized)) << "round " << round;
    EXPECT_EQ(placed, fullorder(rebuilt)) << "round " << round;

    std::uint32_t longest = 0;
    for (const auto& [q, x] : stored) longest = std::max(longest, x.ord_prefix);
    const std::uint32_t rep_prefix = stored.at(chosenrep(stored)).ord_prefix;
    rep_shorter += rep_prefix < longest;
    rep_longest += rep_prefix == longest && rep_prefix > 0;
    with_full += some_full && !all_full;
    full_mode += all_full;
  }
  EXPECT_GT(rep_shorter, 0) << "a representative with a shorter prefix than another entry";
  EXPECT_GT(rep_longest, 0) << "a representative with the longest prefix";
  EXPECT_GT(with_full, 0) << "whole summaries beside deltas";
  EXPECT_GT(full_mode, 0) << "rounds of whole summaries only";
}

TEST(SharedBase, DigestWithoutMarksCoversNothing) {
  Summary base;
  base.con.emplace(lab(1, 1, 0), value_of(lab(1, 1, 0)));
  Summary x;
  x.ord = {lab(1, 2, 0)};
  x.con.emplace(lab(1, 2, 0), value_of(lab(1, 2, 0)));
  EXPECT_EQ(with_base(full_entry(x, base), base, SummaryDigest{}), x);
  EXPECT_EQ(with_base(full_entry(x, base), base, digest(base)).con.size(), 2u);
  const SummaryMap y{{0, x}};
  const StoredMap stored{{0, full_entry(x, base)}};
  EXPECT_EQ(establish_from(stored, base, SummaryDigest{}, true), fullorder(y));
  EXPECT_EQ(establish_from(stored, base, digest(base), true),
            (std::vector<Label>{lab(1, 2, 0), lab(1, 1, 0)}));
}

TEST(SharedBase, DeltaEntryRejectsExactlyWhatApplyDeltaRejects) {
  SummaryDelta dl;
  dl.ord_prefix = 2;
  EXPECT_FALSE(delta_entry(dl, Summary{}).has_value());
  EXPECT_FALSE(apply_delta(dl, Summary{}).has_value());
  Summary base;
  base.ord = {lab(1, 1, 0), lab(1, 2, 0)};
  const auto entry = delta_entry(dl, base);
  ASSERT_TRUE(entry.has_value());
  ASSERT_TRUE(apply_delta(dl, base).has_value());
  EXPECT_EQ(*entry, dl) << "the entry keeps the prefix as a length";
  EXPECT_EQ(with_base(*entry, base, digest(base)).ord, base.ord);
  EXPECT_EQ(with_base(*entry, base, SummaryDigest{}).ord, base.ord);
}

}  // namespace
}  // namespace vsg::core
