#include "core/codec.hpp"

#include <algorithm>
#include <functional>

namespace vsg::wire {

namespace {

/// Delta-coded label lists: each label is four zigzag svarints relative to
/// its predecessor (epoch, viewid origin, seqno, origin), starting from a
/// default Label.
struct LabelChain {
  core::Label prev;

  template <class Out>
  void encode(Out& e, const core::Label& l) {
    e.svarint(static_cast<std::int64_t>(l.id.epoch - prev.id.epoch));
    e.svarint(static_cast<std::int64_t>(l.id.origin) - prev.id.origin);
    e.svarint(static_cast<std::int64_t>(l.seqno) - static_cast<std::int64_t>(prev.seqno));
    e.svarint(static_cast<std::int64_t>(l.origin) - prev.origin);
    prev = l;
  }
  core::Label decode(util::Decoder& d) {
    core::Label l;
    l.id.epoch = prev.id.epoch + static_cast<std::uint64_t>(d.svarint());
    l.id.origin = static_cast<ProcId>(prev.id.origin + d.svarint());
    l.seqno = static_cast<std::uint32_t>(static_cast<std::int64_t>(prev.seqno) + d.svarint());
    l.origin = static_cast<ProcId>(prev.origin + d.svarint());
    prev = l;
    return l;
  }
};

/// Stream keys are (viewid, origin) triples delta-coded like labels.
struct StreamChain {
  core::LabelStream prev{core::ViewId{}, 0};

  template <class Out>
  void encode(Out& e, const core::LabelStream& s) {
    e.svarint(static_cast<std::int64_t>(s.first.epoch - prev.first.epoch));
    e.svarint(static_cast<std::int64_t>(s.first.origin) - prev.first.origin);
    e.svarint(static_cast<std::int64_t>(s.second) - prev.second);
    prev = s;
  }
  core::LabelStream decode(util::Decoder& d) {
    core::LabelStream s;
    s.first.epoch = prev.first.epoch + static_cast<std::uint64_t>(d.svarint());
    s.first.origin = static_cast<ProcId>(prev.first.origin + d.svarint());
    s.second = static_cast<ProcId>(prev.second + d.svarint());
    prev = s;
    return s;
  }
};

}  // namespace

// --- ViewId -----------------------------------------------------------------

template <class Out>
void Codec<core::ViewId>::encode(Out& e, const core::ViewId& g) {
  e.uvarint(g.epoch);
  e.uvarint(static_cast<std::uint64_t>(static_cast<std::uint32_t>(g.origin)));
}

core::ViewId Codec<core::ViewId>::decode(util::Decoder& d) {
  core::ViewId g;
  g.epoch = d.uvarint();
  g.origin = static_cast<ProcId>(static_cast<std::uint32_t>(d.uvarint()));
  return g;
}

// --- View -------------------------------------------------------------------

template <class Out>
void Codec<core::View>::encode(Out& e, const core::View& v) {
  Codec<core::ViewId>::encode(e, v.id);
  e.uvarint(v.members.size());
  ProcId prev = 0;
  for (ProcId p : v.members) {  // set iteration is ascending: deltas stay small
    e.svarint(static_cast<std::int64_t>(p) - prev);
    prev = p;
  }
}

core::View Codec<core::View>::decode(util::Decoder& d) {
  core::View v;
  v.id = Codec<core::ViewId>::decode(d);
  const std::uint64_t n = d.uvarint();
  ProcId prev = 0;
  for (std::uint64_t i = 0; i < n && d.ok(); ++i) {
    prev = static_cast<ProcId>(prev + d.svarint());
    v.members.insert(prev);
  }
  return v;
}

// --- Label ------------------------------------------------------------------

template <class Out>
void Codec<core::Label>::encode(Out& e, const core::Label& l) {
  LabelChain chain;
  chain.encode(e, l);
}

core::Label Codec<core::Label>::decode(util::Decoder& d) {
  LabelChain chain;
  return chain.decode(d);
}

// --- Summary ----------------------------------------------------------------

template <class Out>
void Codec<core::Summary>::encode(Out& e, const core::Summary& x) {
  e.uvarint(x.con.size());
  LabelChain con_chain;
  for (const auto& [l, a] : x.con) {
    con_chain.encode(e, l);
    e.vstr(a);
  }
  e.uvarint(x.ord.size());
  LabelChain ord_chain;
  for (const auto& l : x.ord) ord_chain.encode(e, l);
  e.uvarint(x.next);
  e.boolean(x.high.has_value());
  if (x.high) Codec<core::ViewId>::encode(e, *x.high);
}

core::Summary Codec<core::Summary>::decode(util::Decoder& d) {
  core::Summary x;
  const std::uint64_t ncon = d.uvarint();
  LabelChain con_chain;
  for (std::uint64_t i = 0; i < ncon && d.ok(); ++i) {
    core::Label l = con_chain.decode(d);
    x.con[l] = d.vstr();
  }
  const std::uint64_t nord = d.uvarint();
  LabelChain ord_chain;
  for (std::uint64_t i = 0; i < nord && d.ok(); ++i) x.ord.push_back(ord_chain.decode(d));
  x.next = static_cast<std::uint32_t>(d.uvarint());
  if (d.boolean()) x.high = Codec<core::ViewId>::decode(d);
  return x;
}

// --- SummaryDigest ----------------------------------------------------------

template <class Out>
void Codec<core::SummaryDigest>::encode(Out& e, const core::SummaryDigest& g) {
  e.uvarint(g.next);
  e.uvarint(g.ord_len);
  e.boolean(g.high.has_value());
  if (g.high) Codec<core::ViewId>::encode(e, *g.high);
  e.boolean(g.ref.has_value());
  if (g.ref) Codec<core::ViewId>::encode(e, *g.ref);
  e.uvarint(g.marks.size());
  StreamChain chain;
  for (const auto& [s, wm] : g.marks) {
    chain.encode(e, s);
    e.uvarint(wm);
  }
}

core::SummaryDigest Codec<core::SummaryDigest>::decode(util::Decoder& d) {
  core::SummaryDigest g;
  g.next = static_cast<std::uint32_t>(d.uvarint());
  g.ord_len = static_cast<std::uint32_t>(d.uvarint());
  if (d.boolean()) g.high = Codec<core::ViewId>::decode(d);
  if (d.boolean()) g.ref = Codec<core::ViewId>::decode(d);
  const std::uint64_t n = d.uvarint();
  StreamChain chain;
  for (std::uint64_t i = 0; i < n && d.ok(); ++i) {
    const core::LabelStream s = chain.decode(d);
    g.marks.emplace_back(s, static_cast<std::uint32_t>(d.uvarint()));
  }
  const auto before = [](const auto& a, const auto& b) { return a.first < b.first; };
  if (std::adjacent_find(g.marks.begin(), g.marks.end(), std::not_fn(before)) != g.marks.end()) {
    // Only malformed input lists a stream twice or out of order. Sort it,
    // keeping the last mark given for a stream, as a map assignment would.
    std::reverse(g.marks.begin(), g.marks.end());
    std::stable_sort(g.marks.begin(), g.marks.end(), before);
    g.marks.erase(std::unique(g.marks.begin(), g.marks.end(),
                              [](const auto& a, const auto& b) { return a.first == b.first; }),
                  g.marks.end());
  }
  return g;
}

// --- SummaryDelta -----------------------------------------------------------

template <class Out>
void Codec<core::SummaryDelta>::encode(Out& e, const core::SummaryDelta& dl) {
  e.uvarint(dl.next);
  e.boolean(dl.high.has_value());
  if (dl.high) Codec<core::ViewId>::encode(e, *dl.high);
  e.uvarint(dl.ord_prefix);
  e.uvarint(dl.ord_suffix.size());
  LabelChain ord_chain;
  for (const auto& l : dl.ord_suffix) ord_chain.encode(e, l);
  e.uvarint(dl.con.size());
  LabelChain con_chain;
  for (const auto& [l, a] : dl.con) {
    con_chain.encode(e, l);
    e.vstr(a);
  }
}

core::SummaryDelta Codec<core::SummaryDelta>::decode(util::Decoder& d) {
  core::SummaryDelta dl;
  dl.next = static_cast<std::uint32_t>(d.uvarint());
  if (d.boolean()) dl.high = Codec<core::ViewId>::decode(d);
  dl.ord_prefix = static_cast<std::uint32_t>(d.uvarint());
  const std::uint64_t nord = d.uvarint();
  LabelChain ord_chain;
  for (std::uint64_t i = 0; i < nord && d.ok(); ++i)
    dl.ord_suffix.push_back(ord_chain.decode(d));
  const std::uint64_t ncon = d.uvarint();
  LabelChain con_chain;
  for (std::uint64_t i = 0; i < ncon && d.ok(); ++i) {
    core::Label l = con_chain.decode(d);
    dl.con[l] = d.vstr();
  }
  return dl;
}

// Each encoder above is the one writer of its type: over the Encoder it
// writes bytes, over the SizeCounter it counts them (encoded_size).

template void Codec<core::ViewId>::encode(util::Encoder&, const core::ViewId&);
template void Codec<core::ViewId>::encode(util::SizeCounter&, const core::ViewId&);
template void Codec<core::View>::encode(util::Encoder&, const core::View&);
template void Codec<core::View>::encode(util::SizeCounter&, const core::View&);
template void Codec<core::Label>::encode(util::Encoder&, const core::Label&);
template void Codec<core::Label>::encode(util::SizeCounter&, const core::Label&);
template void Codec<core::Summary>::encode(util::Encoder&, const core::Summary&);
template void Codec<core::Summary>::encode(util::SizeCounter&, const core::Summary&);
template void Codec<core::SummaryDigest>::encode(util::Encoder&, const core::SummaryDigest&);
template void Codec<core::SummaryDigest>::encode(util::SizeCounter&, const core::SummaryDigest&);
template void Codec<core::SummaryDelta>::encode(util::Encoder&, const core::SummaryDelta&);
template void Codec<core::SummaryDelta>::encode(util::SizeCounter&, const core::SummaryDelta&);

}  // namespace vsg::wire
