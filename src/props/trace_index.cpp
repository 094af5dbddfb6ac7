#include "props/trace_index.hpp"

#include <algorithm>

namespace vsg::props {

namespace {
// The k-th receipt of a stream at r is its k-th send.
void receive(Stream& s, ProcId r, sim::Time at) {
  std::size_t& k = s.received[r];
  if (s.got.size() <= k) s.got.resize(k + 1);
  s.got[k].emplace(r, at);
  ++k;
}
}  // namespace

const std::map<ProcId, sim::Time>& Stream::receipts(std::size_t k) const {
  static const std::map<ProcId, sim::Time> none;
  return k < got.size() ? got[k] : none;
}

std::optional<sim::Time> all_of(const std::map<ProcId, sim::Time>& times,
                                const std::set<ProcId>& q) {
  sim::Time all = 0;
  for (ProcId r : q) {
    const auto it = times.find(r);
    if (it == times.end()) return std::nullopt;
    all = std::max(all, it->second);
  }
  return all;
}

std::optional<sim::Time> first_of(const std::map<ProcId, sim::Time>& times,
                                  const std::set<ProcId>& q) {
  std::optional<sim::Time> first;
  for (ProcId r : q)
    if (const auto it = times.find(r); it != times.end())
      first = std::min(first.value_or(it->second), it->second);
  return first;
}

TraceIndex::TraceIndex(int n0) {
  const core::View v0 = core::initial_view(n0);
  for (ProcId p = 0; p < n0; ++p) procs_[p].view = v0;
}

TraceIndex::TraceIndex(const trace::EventLog& trace, int n0) : TraceIndex(n0) {
  for (const auto& te : trace) add(te);
}

void TraceIndex::add(const trace::TimedEvent& te) {
  if (const auto* e = trace::as<sim::StatusEvent>(te)) {
    Status& s = e->is_link ? links_[{e->p, e->q}] : procs_[e->p].status;
    s.status = e->status;
    s.at = std::max(s.at, te.at);
  } else if (const auto* e = trace::as<trace::BcastEvent>(te)) {
    to_[e->p].sent.push_back(te.at);
  } else if (const auto* e = trace::as<trace::BrcvEvent>(te)) {
    receive(to_[e->origin], e->dest, te.at);
  } else if (const auto* e = trace::as<trace::NewViewEvent>(te)) {
    Proc& p = procs_[e->p];
    p.view = e->view();
    p.newview_at = std::max(p.newview_at, te.at);
  } else if (const auto* e = trace::as<trace::GpsndEvent>(te)) {
    if (const auto& cur = view(e->p)) vs_[{cur->id, e->p}].sent.push_back(te.at);
  } else if (const auto* e = trace::as<trace::SafeEvent>(te)) {
    if (const auto& cur = view(e->dst)) receive(vs_[{cur->id, e->src}], e->dst, te.at);
  }
}

TraceIndex::Status TraceIndex::proc(ProcId p) const {
  const auto it = procs_.find(p);
  return it == procs_.end() ? Status{} : it->second.status;
}

TraceIndex::Status TraceIndex::link(ProcId p, ProcId q) const {
  const auto it = links_.find({p, q});
  return it == links_.end() ? Status{} : it->second;
}

sim::Time TraceIndex::last_status_touching(const std::set<ProcId>& q) const {
  sim::Time l = 0;
  for (ProcId p : q) l = std::max(l, proc(p).at);
  for (const auto& [ends, s] : links_)
    if (q.count(ends.first) != 0 || q.count(ends.second) != 0) l = std::max(l, s.at);
  return l;
}

const Stream* TraceIndex::to_stream(ProcId origin) const {
  const auto it = to_.find(origin);
  return it == to_.end() ? nullptr : &it->second;
}

const Stream* TraceIndex::vs_stream(const core::ViewId& g, ProcId sender) const {
  const auto it = vs_.find({g, sender});
  return it == vs_.end() ? nullptr : &it->second;
}

const std::optional<core::View>& TraceIndex::view(ProcId p) const {
  static const std::optional<core::View> none;
  const auto it = procs_.find(p);
  return it == procs_.end() ? none : it->second.view;
}

sim::Time TraceIndex::last_newview(const std::set<ProcId>& q) const {
  sim::Time t = 0;
  for (ProcId p : q)
    if (const auto it = procs_.find(p); it != procs_.end()) t = std::max(t, it->second.newview_at);
  return t;
}

FinalView TraceIndex::final_view(const std::set<ProcId>& q) const {
  FinalView out;
  if (q.empty()) return out;
  out.view = view(*q.begin());
  for (ProcId p : q) {
    const auto& cur = view(p);
    if (!cur.has_value()) {
      out.why_not = "member " + std::to_string(p) + " has no view";
      break;
    }
    if (!(*cur == *out.view)) {
      out.why_not = "members of Q disagree on the final view";
      break;
    }
  }
  return out;
}

}  // namespace vsg::props
