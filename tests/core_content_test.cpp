// core::Content against a std::map<Label, Value> model, after the
// dual-model idiom of a verified container: every operation runs on both,
// and after each step the two must agree on size, lookups, label-order
// iteration and equality. Random labels come out of order, repeat, leave
// gaps in their streams and include seqno 0, so every path of the stream
// representation (run, tail, absorb, prepend, new lowest block) is taken.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "core/content.hpp"
#include "core/summary.hpp"
#include "util/rng.hpp"

namespace vsg::core {

void PrintTo(const Label& l, std::ostream* os) { *os << to_string(l); }

namespace {

using Model = std::map<Label, Value>;

// The map-walk digest Content replaced: one pass over con in label order,
// extending a stream's watermark only while its prefix from 1 is dense.
SummaryDigest ref_digest(const Summary& x) {
  SummaryDigest g;
  g.next = x.next;
  g.ord_len = static_cast<std::uint32_t>(x.ord.size());
  g.high = x.high;
  std::map<LabelStream, std::uint32_t> marks;
  for (const auto& [l, a] : x.con) {
    auto [it, inserted] = marks.try_emplace(LabelStream{l.id, l.origin}, 0);
    if (l.seqno == it->second + 1) it->second = l.seqno;
  }
  for (const auto& [s, w] : marks)
    if (w != 0) g.marks.emplace_back(s, w);
  return g;
}

// Labels over 2 epochs x 2 view origins x 3 label origins, seqnos 0..9.
Label random_label(util::Rng& rng) {
  return Label{ViewId{1 + rng.below(2), static_cast<ProcId>(rng.below(2))},
               static_cast<std::uint32_t>(rng.below(10)), static_cast<ProcId>(rng.below(3))};
}

Value random_value(util::Rng& rng) { return "v" + std::to_string(rng.below(1000)); }

// Mostly dense streams from 1, as real content is, plus scattered labels.
void fill(util::Rng& rng, Content& c, Model& m) {
  for (std::uint64_t k = rng.below(4); k > 0; --k) {
    const Label start = random_label(rng);
    for (std::uint32_t s = 1, n = static_cast<std::uint32_t>(rng.below(6)); s <= n; ++s) {
      const Label l{start.id, s, start.origin};
      const Value v = random_value(rng);
      c.try_emplace(l, v);
      m.try_emplace(l, v);
    }
  }
  for (std::uint64_t k = rng.below(5); k > 0; --k) {
    const Label l = random_label(rng);
    const Value v = random_value(rng);
    c.try_emplace(l, v);
    m.try_emplace(l, v);
  }
}

Content from_model(const Model& m) {
  Content c;
  // Reverse label order: every stream is built downward, so equality with
  // the forward-built content checks that the representation is canonical.
  for (auto it = m.rbegin(); it != m.rend(); ++it) c.try_emplace(it->first, it->second);
  return c;
}

void verify(const Content& c, const Model& m, util::Rng& rng, int step) {
  ASSERT_EQ(c.size(), m.size()) << "step " << step;
  EXPECT_EQ(c.empty(), m.empty()) << "step " << step;
  const std::vector<std::pair<Label, Value>> got(c.begin(), c.end());
  const std::vector<std::pair<Label, Value>> want(m.begin(), m.end());
  ASSERT_EQ(got, want) << "step " << step;
  for (int probe = 0; probe < 6; ++probe) {
    const Label l = random_label(rng);
    const auto it = m.find(l);
    const Value* v = c.get(l);
    ASSERT_EQ(v != nullptr, it != m.end()) << "step " << step << " " << to_string(l);
    EXPECT_EQ(c.count(l), m.count(l));
    if (v == nullptr) {
      EXPECT_TRUE(c.find(l) == c.end());
      EXPECT_THROW((void)c.at(l), std::out_of_range);
      continue;
    }
    EXPECT_EQ(*v, it->second);
    EXPECT_EQ(c.at(l), it->second);
    // find lands on l, and iterating from there visits the model's rest.
    auto cf = c.find(l);
    ASSERT_TRUE(cf != c.end());
    for (auto mf = it; mf != m.end(); ++mf, ++cf) {
      ASSERT_TRUE(cf != c.end());
      EXPECT_EQ(cf->first, mf->first);
      EXPECT_EQ(cf->second, mf->second);
    }
    EXPECT_TRUE(cf == c.end());
  }
  EXPECT_EQ(c, from_model(m)) << "step " << step;
  Summary x;
  x.con = c;
  EXPECT_EQ(digest(x), ref_digest(x)) << "step " << step;
}

TEST(Content, MatchesTheMapModelUnderRandomOperations) {
  util::Rng rng(1801);
  for (int round = 0; round < 300; ++round) {
    Content c;
    Model m;
    Content frozen;  // a base frozen at some earlier step, as newview keeps
    for (int step = 0; step < 25; ++step) {
      switch (rng.below(6)) {
        case 0: {  // try_emplace: the first binding stays
          const Label l = random_label(rng);
          const Value v = random_value(rng);
          const auto [it, inserted] = c.try_emplace(l, v);
          const auto [mit, minserted] = m.try_emplace(l, v);
          EXPECT_EQ(inserted, minserted);
          EXPECT_EQ(it->first, l);
          EXPECT_EQ(it->second, mit->second);
          break;
        }
        case 1: {  // operator[] assignment: the last write wins
          const Label l = random_label(rng);
          const Value v = random_value(rng);
          const bool rebinds = m.count(l) != 0 && m.at(l) != v;
          c[l] = v;
          m[l] = v;
          // A refreeze assumes content never rebinds a label (Lemma 6.5).
          if (rebinds) frozen = c;
          break;
        }
        case 2: {  // merge: entries already held win
          Content other;
          Model om;
          fill(rng, other, om);
          c.merge(other);
          m.insert(om.begin(), om.end());
          break;
        }
        case 3: {  // a windowed merge: each stream's suffix above a random mark
          Content other;
          Model om;
          fill(rng, other, om);
          std::vector<Content::Window> windows;
          std::map<LabelStream, Content::Window> by_stream;
          for (const Content::Stream& st : other.streams()) {
            const Content::Window w{rng.below(6), rng.chance(0.3) ? rng.below(8) : UINT32_MAX};
            windows.push_back(w);
            by_stream.emplace(st.key(), w);
          }
          c.merge(other, windows);
          for (const auto& [l, v] : om) {
            const Content::Window& w = by_stream.at(LabelStream{l.id, l.origin});
            if (l.seqno >= w.lo && l.seqno <= w.hi) m.try_emplace(l, v);
          }
          break;
        }
        case 4: {  // suffix append: a run of one held stream starting near its end
          if (c.empty()) break;
          const LabelStream key = c.streams()[rng.below(c.streams().size())].key();
          std::uint32_t last = 0;
          for (const auto& [l, v] : m)
            if (LabelStream{l.id, l.origin} == key) last = l.seqno;
          const auto from = static_cast<std::uint32_t>(last + 2 - std::min<std::uint64_t>(last + 2, rng.below(5)));
          Content other;
          for (std::uint32_t s = from, n = from + static_cast<std::uint32_t>(rng.below(4)); s <= n; ++s) {
            const Label l{key.first, s, key.second};
            const Value v = random_value(rng);
            other.try_emplace(l, v);
            m.try_emplace(l, v);
          }
          c.merge(other);
          break;
        }
        default: {  // refreeze: bring an earlier snapshot up to date
          frozen.merge(c);
          EXPECT_EQ(frozen, c) << "round " << round << " step " << step;
          if (rng.chance(0.5)) frozen = c;
          break;
        }
      }
      verify(c, m, rng, step);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Content, SeqnoZeroAndGapsIterateInLabelOrder) {
  const ViewId g{1, 0};
  Content c{{Label{g, 3, 0}, "c"}, {Label{g, 0, 1}, "z"}, {Label{g, 1, 0}, "a"},
            {Label{g, 1, 1}, "b"}, {Label{g, 7, 0}, "d"}};
  std::vector<Label> labels;
  for (const auto& [l, v] : c) labels.push_back(l);
  EXPECT_EQ(labels, (std::vector<Label>{Label{g, 0, 1}, Label{g, 1, 0}, Label{g, 1, 1},
                                        Label{g, 3, 0}, Label{g, 7, 0}}));
  // Origin 0 holds 1, 3, 7: a dense prefix of 1; origin 1 holds 0, 1.
  Summary x;
  x.con = c;
  EXPECT_EQ(digest(x).marks, (StreamMarks{{{g, 0}, 1}, {{g, 1}, 1}}));
  c[Label{g, 2, 0}] = "b2";  // closes the gap to 3
  x.con = c;
  EXPECT_EQ(digest(x).marks, (StreamMarks{{{g, 0}, 3}, {{g, 1}, 1}}));
}

}  // namespace
}  // namespace vsg::core
