#include "core/summary.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <ranges>

#include "util/sequence.hpp"

namespace vsg::core {
namespace {

// One seqno window per stream of c, window_of(the watermark `marks` gives
// it, or nullopt), by one merge walk: both are sorted by stream.
template <typename F>
std::vector<Content::Window> windows(const Content& c, const StreamMarks& marks, F window_of) {
  std::vector<Content::Window> out;
  out.reserve(c.streams().size());
  auto m = marks.begin();
  for (const Content::Stream& st : c.streams()) {
    while (m != marks.end() && m->first < st.key()) ++m;
    out.push_back(window_of(m != marks.end() && m->first == st.key()
                                ? std::optional(m->second)
                                : std::nullopt));
  }
  return out;
}

// The seqnos of each stream of c that `own` covers: 0..w under a present
// watermark w (so a zero watermark covers seqno 0), none in an absent
// stream.
std::vector<Content::Window> covered(const Content& c, const SummaryDigest& own) {
  return windows(c, own.marks, [](std::optional<std::uint32_t> w) {
    return w ? Content::Window{0, *w} : Content::Window{1, 0};
  });
}

}  // namespace

std::vector<Label> confirmed_prefix(const Summary& x) {
  const std::size_t len =
      std::min<std::size_t>(x.next == 0 ? 0 : x.next - 1, x.ord.size());
  return util::prefix_of(x.ord, len);
}

Content knowncontent(const SummaryMap& y) {
  Content all;
  for (const auto& [q, x] : y) all.merge(x.con);
  return all;
}

std::optional<ViewId> maxprimary(const SummaryMap& y) {
  assert(!y.empty());
  std::optional<ViewId> best;
  for (const auto& [q, x] : y)
    if (x.high && (!best || *x.high > *best)) best = x.high;
  return best;
}

std::vector<ProcId> reps(const SummaryMap& y) {
  const auto best = maxprimary(y);
  std::vector<ProcId> out;
  for (const auto& [q, x] : y)
    if (x.high == best) out.push_back(q);
  return out;
}

ProcId chosenrep(const SummaryMap& y) {
  const auto r = reps(y);
  assert(!r.empty());
  return *std::max_element(r.begin(), r.end());
}

std::vector<Label> shortorder(const SummaryMap& y) {
  return y.at(chosenrep(y)).ord;
}

std::vector<Label> fullorder(const SummaryMap& y) {
  return fullorder(y, Summary{}, SummaryDigest{});
}

std::vector<Label> fullorder(const SummaryMap& y, const Summary& base,
                             const SummaryDigest& own) {
  std::vector<Label> order = shortorder(y);
  // Append every known label not already in the short order, in label order.
  // Only dom(knowncontent(Y)) matters, so collect labels straight from each
  // con instead of copying the values. Each con iterates in label order, so
  // the labels of the stored entries are a running sorted union.
  std::vector<Label> stored, merged, labels;
  for (const auto& [q, x] : y) {
    labels.clear();
    for (const auto& [l, a] : x.con) labels.push_back(l);
    merged.clear();
    std::ranges::set_union(stored, labels, std::back_inserter(merged));
    stored.swap(merged);
  }
  std::vector<Label> in_short = order;
  std::sort(in_short.begin(), in_short.end());
  auto sh = in_short.begin();
  const auto append_if_new = [&](const Label& l) {  // called in label order
    while (sh != in_short.end() && *sh < l) ++sh;
    if (sh == in_short.end() || *sh != l) order.push_back(l);
  };
  // The covered part of base.con belongs to every entry, so one pass over
  // it, merged with the stored labels, stands for all of them. The prefix
  // keeps the representative's ordering, exactly as Figure 8 specifies.
  auto s = stored.begin();
  if (!own.marks.empty()) {
    const std::vector<Content::Window> cover = covered(base.con, own);
    for (auto it = base.con.begin(); it != base.con.end(); ++it) {
      const Label l = it->first;
      const Content::Window& w = cover[it.stream_index()];
      if (l.seqno < w.lo || l.seqno > w.hi) continue;
      for (; s != stored.end() && *s <= l; ++s)
        if (*s != l) append_if_new(*s);
      append_if_new(l);
    }
  }
  for (; s != stored.end(); ++s) append_if_new(*s);
  return order;
}

std::uint32_t maxnextconfirm(const SummaryMap& y) {
  std::uint32_t best = 1;
  for (const auto& [q, x] : y) best = std::max(best, x.next);
  return best;
}

SummaryDigest digest(const Summary& x) {
  SummaryDigest g;
  g.next = x.next;
  g.ord_len = static_cast<std::uint32_t>(x.ord.size());
  g.high = x.high;
  // One read per stream. A stream without seqno 1 has watermark 0, the
  // same as absent; it is left out so equal knowledge yields equal digests.
  g.marks.reserve(x.con.streams().size());
  for (const Content::Stream& st : x.con.streams())
    if (const std::uint32_t w = st.prefix(); w > 0) g.marks.emplace_back(st.key(), w);
  return g;
}

SummaryDigest meet(std::span<const SummaryDigest* const> ds) {
  assert(!ds.empty());
  SummaryDigest m{ds[0]->next, ds[0]->ord_len, ds[0]->high, {}};
  using It = StreamMarks::const_iterator;
  std::vector<It> at;
  at.reserve(ds.size());
  m.marks.reserve(ds[0]->marks.size());
  for (const SummaryDigest* d : ds) {
    m.next = std::min(m.next, d->next);
    m.ord_len = std::min(m.ord_len, d->ord_len);
    if (!d->high || !m.high) m.high.reset();
    else m.high = std::min(*m.high, *d->high);
    at.push_back(d->marks.begin());
  }
  // One merge over the sorted marks: a stream of the first digest survives
  // only if every other digest has it too, with the least watermark.
  for (const auto& [s, w] : ds[0]->marks) {
    std::uint32_t low = w;
    bool everywhere = true;
    for (std::size_t k = 1; k < ds.size() && everywhere; ++k) {
      while (at[k] != ds[k]->marks.end() && at[k]->first < s) ++at[k];
      everywhere = at[k] != ds[k]->marks.end() && at[k]->first == s;
      if (everywhere) low = std::min(low, at[k]->second);
    }
    if (everywhere) m.marks.emplace_back(s, low);
  }
  return m;
}

SummaryDigest meet(const SummaryDigest& a, const SummaryDigest& b) {
  const SummaryDigest* both[] = {&a, &b};
  return meet(both);
}

SummaryDelta delta(const Summary& a, const SummaryDigest& d) {
  SummaryDelta dl;
  dl.next = a.next;
  dl.high = a.high;
  const std::size_t shared = std::min(
      {static_cast<std::size_t>(a.next == 0 ? 0 : a.next - 1),
       static_cast<std::size_t>(d.next == 0 ? 0 : d.next - 1),
       static_cast<std::size_t>(d.ord_len), a.ord.size()});
  dl.ord_prefix = static_cast<std::uint32_t>(shared);
  dl.ord_suffix.assign(a.ord.begin() + static_cast<std::ptrdiff_t>(shared), a.ord.end());
  // Each stream's suffix above d's watermark (an absent stream reads as 0,
  // so seqno 0 is never shipped).
  dl.con.merge(a.con, windows(a.con, d.marks, [](std::optional<std::uint32_t> w) {
                 return Content::Window{std::uint64_t{w.value_or(0)} + 1};
               }));
  return dl;
}

std::optional<Summary> apply_delta(const SummaryDelta& dl, const Summary& base) {
  if (dl.ord_prefix > base.ord.size()) return std::nullopt;
  Summary x;
  x.next = dl.next;
  x.high = dl.high;
  x.ord.assign(base.ord.begin(), base.ord.begin() + dl.ord_prefix);
  x.ord.insert(x.ord.end(), dl.ord_suffix.begin(), dl.ord_suffix.end());
  x.con = dl.con;
  // Fill from the receiver's own watermark-covered entries. The sender
  // omitted only entries under the *meet* watermark, which is <= ours, and
  // label -> value is a function (Lemma 6.5), so every omitted entry is
  // restored bit-identically; extras beyond the sender's con are entries we
  // hold anyway (union-equivalent for every consumer of gotstate). One
  // label at a time, apart from with_base's stream merge, so the tests can
  // hold the shared-base form against this one.
  const SummaryDigest own = digest(base);
  for (const auto& [l, v] : base.con) {
    const LabelStream s{l.id, l.origin};
    const auto m = std::ranges::lower_bound(own.marks, s, {}, &StreamMarks::value_type::first);
    if (m != own.marks.end() && m->first == s && l.seqno <= m->second) x.con.emplace(l, v);
  }
  return x;
}

std::optional<Summary> delta_entry(SummaryDelta dl, const Summary& base) {
  if (dl.ord_prefix > base.ord.size()) return std::nullopt;
  Summary x;
  x.next = dl.next;
  x.high = dl.high;
  x.ord.reserve(dl.ord_prefix + dl.ord_suffix.size());
  x.ord.assign(base.ord.begin(), base.ord.begin() + dl.ord_prefix);
  x.ord.insert(x.ord.end(), dl.ord_suffix.begin(), dl.ord_suffix.end());
  x.con = std::move(dl.con);
  return x;
}

Summary with_base(Summary x, const Summary& base, const SummaryDigest& own) {
  if (!own.marks.empty()) x.con.merge(base.con, covered(base.con, own));
  return x;
}

}  // namespace vsg::core
