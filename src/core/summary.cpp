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

// The union of two sorted mark lists; a stream both hold keeps the greater
// mark.
StreamMarks overlay(const StreamMarks& a, const StreamMarks& b) {
  StreamMarks out;
  out.reserve(a.size() + b.size());
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() || j != b.end()) {
    if (j == b.end() || (i != a.end() && i->first < j->first)) {
      out.push_back(*i++);
    } else if (i == a.end() || j->first < i->first) {
      out.push_back(*j++);
    } else {
      out.emplace_back(i->first, std::max(i->second, j->second));
      ++i;
      ++j;
    }
  }
  return out;
}

// The held exchange d is relative to, which rebuilds it exactly, or null.
const DigestRef* held_ref(const SummaryDigest& d, std::span<const DigestRef> held) {
  if (!d.ref) return nullptr;
  const auto it = std::ranges::find(held, *d.ref, &DigestRef::view);
  return it == held.end() ? nullptr : &*it;
}

// Whether `own` covers l (see covered()) and base.con holds it: a label
// with_base(., base, own) adds to every entry.
bool covered_in_base(const Label& l, const Summary& base, const SummaryDigest& own) {
  const LabelStream s{l.id, l.origin};
  const auto m = std::ranges::lower_bound(own.marks, s, {}, &StreamMarks::value_type::first);
  return m != own.marks.end() && m->first == s && l.seqno <= m->second &&
         base.con.get(l) != nullptr;
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
  SummaryDigest m{ds[0]->next, ds[0]->ord_len, ds[0]->high, {}, std::nullopt};
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

SummaryDigest relative(const SummaryDigest& d, const DigestRef& ref) {
  SummaryDigest out{d.next, d.ord_len, d.high, {}, ref.view};
  auto m = ref.marks.begin();
  for (const auto& [s, w] : d.marks) {
    while (m != ref.marks.end() && m->first < s) ++m;
    if (m == ref.marks.end() || m->first != s || m->second < w) out.marks.emplace_back(s, w);
  }
  return out;
}

SummaryDigest rebuild(const SummaryDigest& d, std::span<const DigestRef> held) {
  SummaryDigest out{d.next, d.ord_len, d.high, d.marks, std::nullopt};
  if (const DigestRef* ref = held_ref(d, held)) out.marks = overlay(ref->marks, d.marks);
  return out;
}

ExchangeMeet meet_rebuilt(std::span<const SummaryDigest* const> ds,
                          std::span<const DigestRef> held) {
  assert(!ds.empty());
  ExchangeMeet out;
  // Exact: no digest had a ref, or every one had the same held one.
  const std::optional<ViewId>& first = ds.front()->ref;
  out.exact = std::ranges::all_of(ds, [&](const SummaryDigest* d) { return d->ref == first; }) &&
              (!first || held_ref(*ds.front(), held) != nullptr);
  std::optional<SummaryDigest> acc;
  const auto fold = [&](SummaryDigest m) { acc = acc ? meet(*acc, m) : std::move(m); };
  // The digests relative to one held exchange rebuild as its marks with
  // theirs over them, so their meet is those marks with the meet of theirs
  // over them; the cost follows the marks sent, not the history. Every
  // other digest is read as its marks are.
  std::vector<const SummaryDigest*> group;
  for (const DigestRef& ref : held) {
    group.clear();
    for (const SummaryDigest* d : ds)
      if (d->ref == ref.view) group.push_back(d);
    if (group.empty()) continue;
    SummaryDigest m = meet(group);
    m.marks = overlay(ref.marks, m.marks);
    fold(std::move(m));
  }
  group.clear();
  for (const SummaryDigest* d : ds)
    if (held_ref(*d, held) == nullptr) group.push_back(d);
  if (!group.empty()) fold(meet(group));
  out.meet = std::move(*acc);
  return out;
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

SummaryDelta full_entry(Summary x, const Summary& base) {
  const auto shared = std::ranges::mismatch(x.ord, base.ord).in1;
  return SummaryDelta{x.next, x.high, static_cast<std::uint32_t>(shared - x.ord.begin()),
                      std::vector<Label>(shared, x.ord.end()), std::move(x.con)};
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

std::vector<Label> establish(std::vector<Label>& order, OrderIndex& index, const StoredMap& y,
                             const Summary& base, const SummaryDigest& own,
                             std::span<const Label> unplaced, bool full) {
  const SummaryDelta& rep = y.at(chosenrep(y));
  const std::size_t p = rep.ord_prefix;
  assert(p <= base.ord.size() && base.ord.size() <= order.size());
  assert(std::equal(base.ord.begin(), base.ord.begin() + static_cast<std::ptrdiff_t>(p),
                    order.begin()));
  // shortorder: the shared prefix stays, with its index; the
  // representative's suffix follows verbatim, repeats included (the index
  // keeps a label's first position, as assign would).
  index.truncate(order, p);
  std::vector<Label> cut(order.begin() + static_cast<std::ptrdiff_t>(p), order.end());
  order.resize(p);
  for (const Label& l : rep.ord_suffix) {
    index.insert(order, l, order.size());
    order.push_back(l);
  }
  if (!full) return cut;

  // fullorder: append every known label not already placed, in label order.
  // The covered base labels that can be new lie in base.ord's tail past the
  // prefix or among the unplaced ones; the rest of base.con is placed.
  std::vector<Label> from_base;
  if (!own.marks.empty()) {
    for (auto it = base.ord.begin() + static_cast<std::ptrdiff_t>(p); it != base.ord.end(); ++it)
      if (covered_in_base(*it, base, own)) from_base.push_back(*it);
    for (const Label& l : unplaced)
      if (covered_in_base(l, base, own)) from_base.push_back(l);
    std::ranges::sort(from_base);
  }
  // Each entry's con iterates in label order, so their labels merge into
  // one running sorted union, and then with the base's.
  std::vector<Label> offered = std::move(from_base), merged, labels;
  for (const auto& [q, x] : y) {
    labels.clear();
    for (const auto& [l, a] : x.con) labels.push_back(l);
    merged.clear();
    std::ranges::set_union(offered, labels, std::back_inserter(merged));
    offered.swap(merged);
  }
  // A label offered twice, or placed already, is turned away by the index.
  for (const Label& l : offered)
    if (index.insert(order, l, order.size())) order.push_back(l);
  return cut;
}

}  // namespace vsg::core
