#include "core/summary.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <ranges>
#include <set>

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

// An entry's ord: the shared prefix of base.ord, then its own suffix.
std::vector<Label> ord_of(const SummaryDelta& x, const Summary& base) {
  assert(x.ord_prefix <= base.ord.size());
  std::vector<Label> ord;
  ord.reserve(x.ord_prefix + x.ord_suffix.size());
  ord.assign(base.ord.begin(), base.ord.begin() + x.ord_prefix);
  ord.insert(ord.end(), x.ord_suffix.begin(), x.ord_suffix.end());
  return ord;
}

// The cursor selectors read only high and next, which a Summary and a
// stored entry both carry.
template <typename Map>
std::optional<ViewId> maxprimary_of(const Map& y) {
  assert(!y.empty());
  std::optional<ViewId> best;
  for (const auto& [q, x] : y)
    if (x.high && (!best || *x.high > *best)) best = x.high;
  return best;
}

// The highest id among the members attaining maxprimary: the last one, as
// the map is sorted by id.
template <typename Map>
ProcId chosenrep_of(const Map& y) {
  const auto best = maxprimary_of(y);
  ProcId rep = kNoProc;
  for (const auto& [q, x] : y)
    if (x.high == best) rep = q;
  return rep;
}

template <typename Map>
std::uint32_t maxnextconfirm_of(const Map& y) {
  std::uint32_t best = 1;
  for (const auto& [q, x] : y) best = std::max(best, x.next);
  return best;
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

std::optional<ViewId> maxprimary(const SummaryMap& y) { return maxprimary_of(y); }
std::optional<ViewId> maxprimary(const StoredMap& y) { return maxprimary_of(y); }

std::vector<ProcId> reps(const SummaryMap& y) {
  const auto best = maxprimary(y);
  std::vector<ProcId> out;
  for (const auto& [q, x] : y)
    if (x.high == best) out.push_back(q);
  return out;
}

ProcId chosenrep(const SummaryMap& y) { return chosenrep_of(y); }
ProcId chosenrep(const StoredMap& y) { return chosenrep_of(y); }

std::vector<Label> shortorder(const SummaryMap& y) {
  return y.at(chosenrep(y)).ord;
}

std::vector<Label> shortorder(const StoredMap& y, const Summary& base) {
  return ord_of(y.at(chosenrep(y)), base);
}

std::vector<Label> fullorder(const SummaryMap& y) {
  std::vector<Label> order = shortorder(y);
  const std::set<Label> placed(order.begin(), order.end());
  std::set<Label> rest;
  for (const auto& [q, x] : y)
    for (const auto& [l, a] : x.con)
      if (!placed.contains(l)) rest.insert(l);
  order.insert(order.end(), rest.begin(), rest.end());
  return order;
}

IndexedOrder fullorder(const StoredMap& y, const Summary& base, const SummaryDigest& own) {
  IndexedOrder out{shortorder(y, base), {}};
  out.index.assign(out.labels);
  const auto append_if_new = [&](const Label& l) {
    if (out.index.insert(out.labels, l, out.labels.size())) out.labels.push_back(l);
  };
  // Append every known label not already placed, in label order. Only
  // dom(knowncontent(Y)) matters, so collect labels straight from each con
  // instead of copying the values. Each con iterates in label order, so
  // the labels of the stored entries are a running sorted union.
  std::vector<Label> stored, merged, labels;
  for (const auto& [q, x] : y) {
    labels.clear();
    for (const auto& [l, a] : x.con) labels.push_back(l);
    merged.clear();
    std::ranges::set_union(stored, labels, std::back_inserter(merged));
    stored.swap(merged);
  }
  // The covered part of base.con belongs to every entry, so one pass over
  // it, merged with the stored labels, stands for all of them. A label in
  // both is offered twice, and the index turns the second offer away.
  auto s = stored.begin();
  if (!own.marks.empty()) {
    const std::vector<Content::Window> cover = covered(base.con, own);
    for (auto it = base.con.begin(); it != base.con.end(); ++it) {
      const Label l = it->first;
      const Content::Window& w = cover[it.stream_index()];
      if (l.seqno < w.lo || l.seqno > w.hi) continue;
      for (; s != stored.end() && *s < l; ++s) append_if_new(*s);
      append_if_new(l);
    }
  }
  for (; s != stored.end(); ++s) append_if_new(*s);
  return out;
}

std::uint32_t maxnextconfirm(const SummaryMap& y) { return maxnextconfirm_of(y); }
std::uint32_t maxnextconfirm(const StoredMap& y) { return maxnextconfirm_of(y); }

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

std::optional<SummaryDelta> delta_entry(SummaryDelta dl, const Summary& base) {
  if (dl.ord_prefix > base.ord.size()) return std::nullopt;
  return std::optional(std::move(dl));
}

SummaryDelta full_entry(Summary x) {
  return SummaryDelta{x.next, x.high, 0, std::move(x.ord), std::move(x.con)};
}

Summary with_base(const SummaryDelta& x, const Summary& base, const SummaryDigest& own) {
  Summary out;
  out.con = x.con;
  if (!own.marks.empty()) out.con.merge(base.con, covered(base.con, own));
  out.ord = ord_of(x, base);
  out.next = x.next;
  out.high = x.high;
  return out;
}

}  // namespace vsg::core
