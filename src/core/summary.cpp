#include "core/summary.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <ranges>

#include "util/sequence.hpp"

namespace vsg::core {
namespace {

// Watermark lookups for a walk over labels in label order, without a map
// find per label. Labels order by (view, seqno, origin) and streams by
// (view, origin), so the streams of the current label's view are one run
// of the flat copy, and that run only moves forward; the origin is found
// inside it by a binary search over at most one entry per member.
class Watermarks {
 public:
  explicit Watermarks(const std::map<LabelStream, std::uint32_t>& marks)
      : flat_(marks.begin(), marks.end()) {}

  /// The watermark of l's stream (0 if absent). Successive calls (of
  /// either lookup) must pass labels in nondecreasing order.
  std::uint32_t at(const Label& l) {
    const auto* e = find(l);
    return e == nullptr ? 0 : e->second;
  }

  /// True iff l's stream is present and l's seqno lies under its watermark.
  bool covers(const Label& l) {
    const auto* e = find(l);
    return e != nullptr && l.seqno <= e->second;
  }

 private:
  using Entry = std::pair<LabelStream, std::uint32_t>;

  const Entry* find(const Label& l) {
    while (lo_ < flat_.size() && flat_[lo_].first.first < l.id) ++lo_;
    hi_ = std::max(hi_, lo_);
    while (hi_ < flat_.size() && flat_[hi_].first.first == l.id) ++hi_;
    const auto end = flat_.begin() + static_cast<std::ptrdiff_t>(hi_);
    const auto it = std::partition_point(
        flat_.begin() + static_cast<std::ptrdiff_t>(lo_), end,
        [&](const Entry& e) { return e.first.second < l.origin; });
    return it != end && it->first.second == l.origin ? &*it : nullptr;
  }

  std::vector<Entry> flat_;
  std::size_t lo_ = 0;  // first stream of the current label's view
  std::size_t hi_ = 0;  // one past its last
};

}  // namespace

std::vector<Label> confirmed_prefix(const Summary& x) {
  const std::size_t len =
      std::min<std::size_t>(x.next == 0 ? 0 : x.next - 1, x.ord.size());
  return util::prefix_of(x.ord, len);
}

std::map<Label, Value> knowncontent(const SummaryMap& y) {
  std::map<Label, Value> all;
  for (const auto& [q, x] : y) all.insert(x.con.begin(), x.con.end());
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
  // con instead of copying the values. Each con is sorted, so the labels of
  // the stored entries are a running sorted union.
  std::vector<Label> stored, merged;
  for (const auto& [q, x] : y) {
    merged.clear();
    std::ranges::set_union(stored, std::views::keys(x.con), std::back_inserter(merged));
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
    Watermarks wm(own.marks);
    for (const auto& [l, a] : base.con) {
      if (!wm.covers(l)) continue;
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
  // One pass over con (sorted by label = (view, seqno, origin), so each
  // stream's labels appear in increasing seqno order even though streams
  // interleave): extend a stream's watermark only while the prefix is dense.
  for (const auto& [l, a] : x.con) {
    const LabelStream s{l.id, l.origin};
    auto [it, inserted] = g.marks.try_emplace(s, 0);
    if (l.seqno == it->second + 1) it->second = l.seqno;
  }
  // Streams with no dense prefix (first held seqno > 1) carry watermark 0 —
  // the same as absent. Drop them so equal knowledge yields equal digests.
  for (auto it = g.marks.begin(); it != g.marks.end();)
    it = it->second == 0 ? g.marks.erase(it) : std::next(it);
  return g;
}

SummaryDigest meet(std::span<const SummaryDigest* const> ds) {
  assert(!ds.empty());
  SummaryDigest m{ds[0]->next, ds[0]->ord_len, ds[0]->high, {}};
  using It = std::map<LabelStream, std::uint32_t>::const_iterator;
  std::vector<It> at;
  at.reserve(ds.size());
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
    if (everywhere) m.marks.emplace_hint(m.marks.end(), s, low);
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
  Watermarks wm(d.marks);
  for (const auto& [l, v] : a.con)
    if (l.seqno > wm.at(l)) dl.con.emplace_hint(dl.con.end(), l, v);
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
  // hold anyway (union-equivalent for every consumer of gotstate).
  const SummaryDigest own = digest(base);
  for (const auto& [l, v] : base.con) {
    const auto it = own.marks.find(LabelStream{l.id, l.origin});
    if (it != own.marks.end() && l.seqno <= it->second) x.con.emplace(l, v);
  }
  return x;
}

std::optional<Summary> delta_entry(const SummaryDelta& dl, const Summary& base) {
  if (dl.ord_prefix > base.ord.size()) return std::nullopt;
  Summary x;
  x.next = dl.next;
  x.high = dl.high;
  x.ord.reserve(dl.ord_prefix + dl.ord_suffix.size());
  x.ord.assign(base.ord.begin(), base.ord.begin() + dl.ord_prefix);
  x.ord.insert(x.ord.end(), dl.ord_suffix.begin(), dl.ord_suffix.end());
  x.con = dl.con;
  return x;
}

Summary with_base(Summary x, const Summary& base, const SummaryDigest& own) {
  if (own.marks.empty()) return x;
  // Merge walk: `pos` trails each base label's place in x.con, so every
  // insertion is hinted and x's own entries win.
  Watermarks wm(own.marks);
  auto pos = x.con.begin();
  for (const auto& [l, v] : base.con) {
    if (!wm.covers(l)) continue;
    while (pos != x.con.end() && pos->first < l) ++pos;
    if (pos == x.con.end() || pos->first != l) x.con.emplace_hint(pos, l, v);
  }
  return x;
}

}  // namespace vsg::core
