// The state-exchange algebra runs as linear merges over sorted containers
// (core/summary.cpp). These properties hold it to reference copies of the
// straightforward std::set / map::find formulations, on random inputs that
// include gappy label streams, digests without marks or with zero
// watermarks (a decoded digest may carry them), labels with seqno 0 and
// ord sequences that repeat a label (only corrupted input does that).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "core/summary.hpp"
#include "core_establish_oracle.hpp"
#include "util/rng.hpp"

namespace vsg::core {
namespace {

// --- Reference formulations ------------------------------------------------

const std::uint32_t* ref_mark(const SummaryDigest& d, const LabelStream& s) {
  const auto it = std::find_if(d.marks.begin(), d.marks.end(),
                               [&](const auto& m) { return m.first == s; });
  return it == d.marks.end() ? nullptr : &it->second;
}

std::uint32_t ref_watermark(const SummaryDigest& d, const Label& l) {
  const std::uint32_t* w = ref_mark(d, LabelStream{l.id, l.origin});
  return w == nullptr ? 0 : *w;
}

bool ref_covers(const SummaryDigest& own, const Label& l) {
  const std::uint32_t* w = ref_mark(own, LabelStream{l.id, l.origin});
  return w != nullptr && l.seqno <= *w;
}

SummaryDigest ref_meet(const SummaryDigest& a, const SummaryDigest& b) {
  SummaryDigest m;
  m.next = std::min(a.next, b.next);
  m.ord_len = std::min(a.ord_len, b.ord_len);
  if (a.high && b.high) m.high = std::min(*a.high, *b.high);
  for (const auto& [s, w] : a.marks)
    if (const std::uint32_t* wb = ref_mark(b, s)) m.marks.emplace_back(s, std::min(w, *wb));
  return m;
}

SummaryDelta ref_delta(const Summary& a, const SummaryDigest& d) {
  SummaryDelta dl;
  dl.next = a.next;
  dl.high = a.high;
  const std::size_t shared = std::min(
      {static_cast<std::size_t>(a.next == 0 ? 0 : a.next - 1),
       static_cast<std::size_t>(d.next == 0 ? 0 : d.next - 1),
       static_cast<std::size_t>(d.ord_len), a.ord.size()});
  dl.ord_prefix = static_cast<std::uint32_t>(shared);
  dl.ord_suffix.assign(a.ord.begin() + static_cast<std::ptrdiff_t>(shared), a.ord.end());
  for (const auto& [l, v] : a.con)
    if (l.seqno > ref_watermark(d, l)) dl.con.emplace(l, v);
  return dl;
}

Summary ref_with_base(Summary x, const Summary& base, const SummaryDigest& own) {
  for (const auto& [l, v] : base.con)
    if (ref_covers(own, l)) x.con.emplace(l, v);
  return x;
}

std::vector<Label> ref_fullorder(const SummaryMap& y, const Summary& base,
                                 const SummaryDigest& own) {
  std::vector<Label> order = shortorder(y);
  const std::set<Label> in_short(order.begin(), order.end());
  std::set<Label> rest;
  const auto add = [&](const Label& l) {
    if (in_short.count(l) == 0) rest.insert(l);
  };
  for (const auto& [l, a] : base.con)
    if (ref_covers(own, l)) add(l);
  for (const auto& [q, x] : y)
    for (const auto& [l, a] : x.con) add(l);
  order.insert(order.end(), rest.begin(), rest.end());
  return order;
}

// --- Random inputs -----------------------------------------------------------

// Labels over 2 epochs x 2 view origins x 3 label origins, seqnos 0..6.
Label random_label(util::Rng& rng) {
  return Label{ViewId{1 + rng.below(2), static_cast<ProcId>(rng.below(2))},
               static_cast<std::uint32_t>(rng.below(7)), static_cast<ProcId>(rng.below(3))};
}

Value value_of(const Label& l) { return "v" + to_string(l); }

// A con with gappy streams: each stream keeps a dense prefix, then a random
// scatter past it (or nothing at all).
Content random_con(util::Rng& rng) {
  Content con;
  for (std::uint64_t epoch = 1; epoch <= 2; ++epoch)
    for (ProcId vo = 0; vo < 2; ++vo)
      for (ProcId origin = 0; origin < 3; ++origin) {
        if (rng.chance(0.3)) continue;
        const auto dense = static_cast<std::uint32_t>(rng.below(5));
        for (std::uint32_t s = 1; s <= dense; ++s) {
          const Label l{ViewId{epoch, vo}, s, origin};
          con.emplace(l, value_of(l));
        }
        for (std::uint64_t k = rng.below(3); k > 0; --k) {
          const Label l{ViewId{epoch, vo}, static_cast<std::uint32_t>(rng.below(8)), origin};
          con.emplace(l, value_of(l));
        }
      }
  return con;
}

Summary random_summary(util::Rng& rng) {
  Summary x;
  x.con = random_con(rng);
  for (std::uint64_t k = rng.below(8); k > 0; --k) x.ord.push_back(random_label(rng));
  if (!x.ord.empty() && rng.chance(0.3)) x.ord.push_back(x.ord[rng.below(x.ord.size())]);
  x.next = static_cast<std::uint32_t>(rng.below(x.ord.size() + 2));
  if (rng.chance(0.6)) x.high = ViewId{rng.below(3), static_cast<ProcId>(rng.below(2))};
  return x;
}

// A digest as a summary yields it, or as the wire may deliver one: marks
// on arbitrary streams, zero watermarks included, or none.
SummaryDigest random_digest(util::Rng& rng) {
  if (rng.chance(0.4)) return digest(random_summary(rng));
  SummaryDigest d;
  d.next = static_cast<std::uint32_t>(rng.below(6));
  d.ord_len = static_cast<std::uint32_t>(rng.below(6));
  if (rng.chance(0.6)) d.high = ViewId{rng.below(3), static_cast<ProcId>(rng.below(2))};
  if (rng.chance(0.2)) return d;  // no marks
  std::map<LabelStream, std::uint32_t> marks;
  for (std::uint64_t k = rng.below(10); k > 0; --k) {
    const Label l = random_label(rng);
    marks[LabelStream{l.id, l.origin}] = static_cast<std::uint32_t>(rng.below(6));
  }
  d.marks.assign(marks.begin(), marks.end());
  return d;
}

constexpr int kRounds = 3000;

TEST(SummaryEquivalence, MeetMatchesTheFindBasedReference) {
  util::Rng rng(1501);
  for (int round = 0; round < kRounds; ++round) {
    const SummaryDigest a = random_digest(rng), b = random_digest(rng);
    EXPECT_EQ(meet(a, b), ref_meet(a, b)) << "round " << round;
    // The n-way meet equals the fold of pairwise reference meets.
    std::vector<SummaryDigest> ds{a, b};
    for (std::uint64_t k = rng.below(4); k > 0; --k) ds.push_back(random_digest(rng));
    std::vector<const SummaryDigest*> ptrs;
    SummaryDigest folded = ds[0];
    for (const auto& d : ds) {
      ptrs.push_back(&d);
      folded = ref_meet(folded, d);
    }
    EXPECT_EQ(meet(ptrs), folded) << "round " << round;
    EXPECT_EQ(meet(std::span<const SummaryDigest* const>(ptrs.data(), 1)), ds[0]);
  }
}

TEST(SummaryEquivalence, DeltaMatchesTheFindBasedReference) {
  util::Rng rng(1502);
  for (int round = 0; round < kRounds; ++round) {
    const Summary a = random_summary(rng);
    const SummaryDigest d = random_digest(rng);
    EXPECT_EQ(delta(a, d), ref_delta(a, d)) << "round " << round;
  }
}

TEST(SummaryEquivalence, WithBaseAndFullorderMatchTheSetBasedReference) {
  util::Rng rng(1503);
  int rep_short = 0, with_grown = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Summary base = random_summary(rng);
    const SummaryDigest own = rng.chance(0.5) ? digest(base) : random_digest(rng);
    // Each entry's ord starts with a random prefix of base.ord; it is stored
    // as a whole summary is, and y holds it as it came.
    StoredMap stored;
    SummaryMap y;
    for (ProcId q = 0, n = 1 + static_cast<ProcId>(rng.below(4)); q < n; ++q) {
      Summary x = random_summary(rng);
      // Stored entries often carry only a delta's worth of content: keep
      // each entry with probability 0.3, one draw per entry in label order.
      if (rng.chance(0.5)) {
        const std::map<Label, Value> model(x.con.begin(), x.con.end());
        x.con = {};
        for (const auto& [l, v] : model)
          if (!rng.chance(0.7)) x.con.emplace(l, v);
      }
      const auto prefix = static_cast<std::ptrdiff_t>(rng.below(base.ord.size() + 1));
      x.ord.insert(x.ord.begin(), base.ord.begin(), base.ord.begin() + prefix);
      stored.emplace(q, full_entry(x, base));
      y.emplace(q, std::move(x));
    }
    // The process's order may have grown since the base froze (a gprcv in
    // collect status appends); establishment cuts that tail too.
    std::vector<Label> grown;
    if (rng.chance(0.3))
      for (std::uint64_t k = 1 + rng.below(3); k > 0; --k) grown.push_back(random_label(rng));
    EXPECT_EQ(establish_from(stored, base, own, true, grown), ref_fullorder(y, base, own))
        << "round " << round;
    EXPECT_EQ(establish_from(stored, base, own, false, grown), shortorder(y)) << "round " << round;
    rep_short += stored.at(chosenrep(stored)).ord_prefix < base.ord.size() ? 1 : 0;
    with_grown += grown.empty() ? 0 : 1;
    EXPECT_EQ(fullorder(y), ref_fullorder(y, Summary{}, SummaryDigest{})) << "round " << round;
    for (const auto& [q, x] : stored)
      EXPECT_EQ(with_base(x, base, own), ref_with_base(y.at(q), base, own)) << "round " << round;
  }
  EXPECT_GT(rep_short, kRounds / 4) << "representatives whose prefix is shorter than the base";
  EXPECT_GT(with_grown, kRounds / 10) << "orders that grew since the base froze";
}

// --- Relative digests ---------------------------------------------------------

// Whether every mark of a is in b with a mark at least as high: a claims no
// more than b.
bool claims_no_more(const SummaryDigest& a, const SummaryDigest& b) {
  for (const auto& [s, w] : a.marks) {
    const std::uint32_t* wb = ref_mark(b, s);
    if (wb == nullptr || *wb < w) return false;
  }
  return true;
}

// The members of an earlier exact exchange, and what each holds now: its
// summary then, with a random con merged in (content only grows).
struct Exchanges {
  std::vector<Summary> then, now;
  DigestRef ref;
};

Exchanges random_exchanges(util::Rng& rng) {
  Exchanges ex;
  std::vector<const SummaryDigest*> ptrs;
  std::vector<SummaryDigest> digests;
  for (std::uint64_t k = 1 + rng.below(4); k > 0; --k) {
    ex.then.push_back(random_summary(rng));
    Summary later = ex.then.back();
    if (rng.chance(0.7)) later.con.merge(random_con(rng));
    ex.now.push_back(later);
    digests.push_back(digest(ex.then.back()));
  }
  for (const auto& d : digests) ptrs.push_back(&d);
  ex.ref = DigestRef{ViewId{3, static_cast<ProcId>(rng.below(2))}, meet(ptrs).marks};
  return ex;
}

// A digest relative to the meet of an earlier exchange that sender and
// receiver both hold rebuilds to the sender's whole digest, and it carries
// only marks above that meet. Read against another ref or none, it claims
// no more than the whole digest.
TEST(SummaryEquivalence, RelativeDigestsRebuildExactlyOrUnderClaim) {
  util::Rng rng(1504);
  int shorter = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Exchanges ex = random_exchanges(rng);
    const DigestRef other{ViewId{4, 0}, ex.ref.marks};
    const SummaryDigest met{1, 0, {}, ex.ref.marks, {}};
    for (const Summary& x : ex.now) {
      const SummaryDigest whole = digest(x);
      const SummaryDigest rel = relative(whole, ex.ref);
      EXPECT_EQ(rel.ref, ex.ref.view);
      for (const auto& [s, w] : rel.marks) {
        const std::uint32_t* old = ref_mark(met, s);
        EXPECT_TRUE(old == nullptr || *old < w) << "round " << round;
      }
      shorter += rel.marks.size() < whole.marks.size() ? 1 : 0;
      const std::span<const DigestRef> ours(&ex.ref, 1), none;
      EXPECT_EQ(rebuild(rel, ours), whole) << "round " << round;
      EXPECT_EQ(rebuild(whole, ours), whole) << "round " << round;
      EXPECT_EQ(rebuild(whole, none), whole) << "round " << round;
      for (const std::span<const DigestRef> held : {none, std::span<const DigestRef>(&other, 1)}) {
        const SummaryDigest read = rebuild(rel, held);
        EXPECT_EQ(read.marks, rel.marks) << "round " << round;
        EXPECT_TRUE(claims_no_more(read, whole)) << "round " << round;
      }
    }
  }
  EXPECT_GT(shorter, kRounds / 2) << "relative digests must usually be shorter";
}

// An exact exchange older than ex.ref: its marks are ex.ref's, some
// streams dropped and the rest lowered, so they lie under every digest
// ex.ref's exchange met.
DigestRef older_ref(const Exchanges& ex, util::Rng& rng) {
  DigestRef out{ViewId{2, 0}, {}};
  for (const auto& [s, w] : ex.ref.marks)
    if (rng.chance(0.5)) out.marks.emplace_back(s, 1 + static_cast<std::uint32_t>(rng.below(w)));
  return out;
}

// meet_rebuilt equals the meet of the digests rebuilt one at a time by a
// receiver holding two exchanges, never claims more than the meet of the
// whole digests, equals it when every ref is held, and calls the exchange
// exact exactly when no digest had a ref or every one had the same held
// ref.
TEST(SummaryEquivalence, MeetOfRebuiltDigestsMatchesTheOneByOneReference) {
  util::Rng rng(1505);
  int exact = 0, mixed = 0, relative_only = 0, held_but_mixed = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Exchanges ex = random_exchanges(rng);
    const DigestRef other{ViewId{4, 0}, ex.ref.marks};
    const std::array<DigestRef, 2> held{ex.ref, older_ref(ex, rng)};
    // none, ours, mixed with whole, ours and another's, ours and the older
    // held one, the older held one alone.
    const int mode = static_cast<int>(rng.below(6));
    std::vector<SummaryDigest> sent, whole;
    for (const Summary& x : ex.now) {
      whole.push_back(digest(x));
      const bool coin = rng.chance(0.5);
      const DigestRef* ref = nullptr;
      switch (mode) {
        case 1: ref = &ex.ref; break;
        case 2: ref = coin ? &ex.ref : nullptr; break;
        case 3: ref = coin ? &ex.ref : &other; break;
        case 4: ref = coin ? &ex.ref : &held[1]; break;
        case 5: ref = &held[1]; break;
      }
      sent.push_back(ref == nullptr ? whole.back() : relative(whole.back(), *ref));
    }
    std::vector<const SummaryDigest*> sent_ptrs, whole_ptrs;
    std::vector<SummaryDigest> one_by_one;
    for (const auto& d : sent) one_by_one.push_back(rebuild(d, held));
    std::vector<const SummaryDigest*> rebuilt_ptrs;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      sent_ptrs.push_back(&sent[i]);
      whole_ptrs.push_back(&whole[i]);
      rebuilt_ptrs.push_back(&one_by_one[i]);
    }
    const ExchangeMeet m = meet_rebuilt(sent_ptrs, held);
    EXPECT_EQ(m.meet, meet(rebuilt_ptrs)) << "round " << round;
    EXPECT_TRUE(claims_no_more(m.meet, meet(whole_ptrs))) << "round " << round;
    bool any_ref = false, all_same = true, all_held = true;
    for (const auto& d : sent) {
      any_ref |= d.ref.has_value();
      all_same &= d.ref == sent.front().ref;
      all_held &= !d.ref || *d.ref == held[0].view || *d.ref == held[1].view;
    }
    EXPECT_EQ(m.exact, !any_ref || (all_same && all_held)) << "round " << round;
    if (all_held) {
      EXPECT_EQ(m.meet, meet(whole_ptrs)) << "round " << round;
    }
    exact += m.exact ? 1 : 0;
    mixed += any_ref && !all_same ? 1 : 0;
    relative_only += any_ref && all_same && all_held ? 1 : 0;
    held_but_mixed += any_ref && all_held && !all_same ? 1 : 0;
    // A receiver without a ref reads every relative digest by its marks.
    EXPECT_TRUE(claims_no_more(meet_rebuilt(sent_ptrs, {}).meet, meet(whole_ptrs)))
        << "round " << round;
  }
  EXPECT_GT(exact, 0);
  EXPECT_GT(mixed, 0);
  EXPECT_GT(relative_only, 0);
  EXPECT_GT(held_but_mixed, 0);
}

}  // namespace
}  // namespace vsg::core
