#include "core/summary.hpp"

#include <algorithm>
#include <set>
#include <cassert>

#include "util/sequence.hpp"

namespace vsg::core {
namespace {

// True iff `own` covers l: l's seqno lies under own's watermark for l's
// label stream.
bool covers(const SummaryDigest& own, const Label& l) {
  const auto it = own.marks.find(LabelStream{l.id, l.origin});
  return it != own.marks.end() && l.seqno <= it->second;
}

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
  const std::set<Label> in_short(order.begin(), order.end());
  // Append every known label not already in the short order, in label order.
  // Only dom(knowncontent(Y)) matters, so collect labels straight from each
  // con instead of copying the values. The covered part of base.con belongs
  // to every entry, so one pass over it stands for all of them. The prefix
  // keeps the representative's ordering, exactly as Figure 8 specifies.
  std::set<Label> rest;
  const auto add = [&](const Label& l) {
    if (in_short.count(l) == 0) rest.insert(l);
  };
  if (!own.marks.empty())
    for (const auto& [l, a] : base.con)
      if (covers(own, l)) add(l);
  for (const auto& [q, x] : y)
    for (const auto& [l, a] : x.con) add(l);
  order.insert(order.end(), rest.begin(), rest.end());
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

SummaryDigest meet(const SummaryDigest& a, const SummaryDigest& b) {
  SummaryDigest m;
  m.next = std::min(a.next, b.next);
  m.ord_len = std::min(a.ord_len, b.ord_len);
  if (a.high && b.high) m.high = std::min(*a.high, *b.high);
  for (const auto& [s, w] : a.marks) {
    const auto it = b.marks.find(s);
    if (it != b.marks.end()) m.marks[s] = std::min(w, it->second);
  }
  return m;
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
  for (const auto& [l, v] : a.con) {
    const auto it = d.marks.find(LabelStream{l.id, l.origin});
    const std::uint32_t wm = it == d.marks.end() ? 0 : it->second;
    if (l.seqno > wm) dl.con.emplace(l, v);
  }
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
  for (const auto& [l, v] : base.con)
    if (covers(own, l)) x.con.emplace(l, v);
  return x;
}

}  // namespace vsg::core
