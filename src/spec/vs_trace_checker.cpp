#include "spec/vs_trace_checker.hpp"

#include <cassert>
#include <sstream>
#include <utility>

#include "trace/recorder.hpp"

namespace vsg::spec {

VSTraceChecker::ViewState::ViewState(std::set<ProcId> m, int n)
    : members(std::move(m)),
      sent(static_cast<std::size_t>(n)),
      gprcv_count(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)),
      safe_count(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)),
      recv_idx(static_cast<std::size_t>(n)),
      safe_idx(static_cast<std::size_t>(n)) {}

VSTraceChecker::VSTraceChecker(int n, int n0)
    : n_(n), current_(static_cast<std::size_t>(n)), cur_state_(static_cast<std::size_t>(n)) {
  assert(n > 0 && n0 > 0 && n0 <= n);
  const core::View v0 = core::initial_view(n0);
  ViewState* s0 = &views_.try_emplace(v0.id, v0.members, n).first->second;
  for (ProcId p = 0; p < n0; ++p) {
    current_[static_cast<std::size_t>(p)] = v0;
    cur_state_[static_cast<std::size_t>(p)] = s0;
  }
}

void VSTraceChecker::attach(trace::Recorder& recorder) {
  recorder.subscribe([this](const trace::TimedEvent& te) { on_event(te); });
}

void VSTraceChecker::complain(const std::string& what) {
  std::ostringstream os;
  os << "VS safety violation (event " << events_seen_ << "): " << what;
  violations_.push_back(os.str());
}

void VSTraceChecker::on_event(const trace::TimedEvent& te) {
  // events_seen_ is the index of this event in the fed stream.
  if (const auto* e = trace::as<trace::NewViewEvent>(te))
    handle_newview(*e);
  else if (const auto* e = trace::as<trace::GpsndEvent>(te))
    handle_gpsnd(*e);
  else if (const auto* e = trace::as<trace::GprcvEvent>(te))
    handle_gprcv(*e);
  else if (const auto* e = trace::as<trace::SafeEvent>(te))
    handle_safe(*e);
  ++events_seen_;
}

void VSTraceChecker::check_all(const trace::EventLog& trace) {
  for (const auto& te : trace) on_event(te);
}

void VSTraceChecker::handle_newview(const trace::NewViewEvent& e) {
  if (e.p < 0 || e.p >= n_) {
    complain("newview at unknown processor");
    return;
  }
  const core::View& v = e.view();
  if (!v.contains(e.p))
    complain("self-inclusion violated: " + std::to_string(e.p) + " not in " +
             core::to_string(v));
  auto [it, inserted] = views_.try_emplace(v.id, v.members, n_);
  if (!inserted && it->second.members != v.members)
    complain("two views share id " + core::to_string(v.id));
  auto& cur = current_[static_cast<std::size_t>(e.p)];
  if (cur.has_value() && !(v.id > cur->id))
    complain("local monotonicity violated at " + std::to_string(e.p) + ": " +
             core::to_string(v.id) + " after " + core::to_string(cur->id));
  cur = v;
  cur_state_[static_cast<std::size_t>(e.p)] = &it->second;
}

void VSTraceChecker::handle_gpsnd(const trace::GpsndEvent& e) {
  if (e.p < 0 || e.p >= n_) {
    complain("gpsnd at unknown processor");
    return;
  }
  ViewState* state = cur_state_[static_cast<std::size_t>(e.p)];
  if (state == nullptr) return;  // sent into bottom view: legal, never delivered
  state->sent[static_cast<std::size_t>(e.p)].emplace_back(events_seen_, e.m);
}

void VSTraceChecker::handle_gprcv(const trace::GprcvEvent& e) {
  if (e.dst < 0 || e.dst >= n_ || e.src < 0 || e.src >= n_) {
    complain("gprcv with unknown processor");
    return;
  }
  const auto dst = static_cast<std::size_t>(e.dst);
  const auto src = static_cast<std::size_t>(e.src);
  ViewState* state = cur_state_[dst];
  if (state == nullptr) {
    complain("gprcv at " + std::to_string(e.dst) + " before any view (initial-view rule)");
    return;
  }
  const core::ViewId& g = current_[dst]->id;

  // Cause construction (Lemma 4.2): the k-th gprcv_{src,dst} in view g is
  // caused by the k-th gpsnd_src in view g.
  auto& k = state->gprcv_count[src * static_cast<std::size_t>(n_) + dst];
  const auto& sent = state->sent[src];
  if (k >= sent.size()) {
    complain("gprcv at " + std::to_string(e.dst) + " from " + std::to_string(e.src) +
             " in view " + core::to_string(g) + " has no cause (prefix exhausted)");
  } else {
    const auto& [send_idx, payload] = sent[k];
    if (payload != e.m)
      complain("gprcv payload differs from its positional cause (sending-view delivery "
               "or FIFO violated) at " +
               std::to_string(e.dst));
    else
      gprcv_cause_.emplace_hint(gprcv_cause_.end(), events_seen_, send_idx);
  }
  ++k;

  // Per-view common total order: match-or-extend.
  auto& order = state->order;
  auto& pos = state->recv_idx[dst];
  if (pos < order.size()) {
    if (order[pos].first != e.src || order[pos].second != e.m)
      complain("per-view total order violated at " + std::to_string(e.dst) + " in view " +
               core::to_string(g) + " position " + std::to_string(pos));
  } else {
    order.emplace_back(e.src, e.m);
  }
  ++pos;
}

void VSTraceChecker::handle_safe(const trace::SafeEvent& e) {
  if (e.dst < 0 || e.dst >= n_ || e.src < 0 || e.src >= n_) {
    complain("safe with unknown processor");
    return;
  }
  const auto dst = static_cast<std::size_t>(e.dst);
  const auto src = static_cast<std::size_t>(e.src);
  ViewState* state = cur_state_[dst];
  if (state == nullptr) {
    complain("safe at " + std::to_string(e.dst) + " before any view");
    return;
  }
  const core::View& cur = *current_[dst];
  const core::ViewId& g = cur.id;

  // Cause construction for safe events.
  auto& k = state->safe_count[src * static_cast<std::size_t>(n_) + dst];
  const auto& sent = state->sent[src];
  if (k >= sent.size()) {
    complain("safe at " + std::to_string(e.dst) + " from " + std::to_string(e.src) +
             " in view " + core::to_string(g) + " has no cause");
  } else {
    const auto& [send_idx, payload] = sent[k];
    if (payload != e.m)
      complain("safe payload differs from its positional cause at " + std::to_string(e.dst));
    else
      safe_cause_.emplace_hint(safe_cause_.end(), events_seen_, send_idx);
  }
  ++k;

  // Queue-order soundness: the j-th safe at q refers to the j-th element of
  // the view's common order, and every view member has delivered past it.
  const auto& order = state->order;
  auto& pos = state->safe_idx[dst];
  if (pos >= order.size()) {
    complain("safe at " + std::to_string(e.dst) + " for a message nobody delivered yet");
  } else if (order[pos].first != e.src || order[pos].second != e.m) {
    complain("safe order violated at " + std::to_string(e.dst) + " in view " +
             core::to_string(g) + " position " + std::to_string(pos));
  } else {
    for (ProcId r : cur.members) {
      const std::size_t delivered =
          r >= 0 && r < n_ ? state->recv_idx[static_cast<std::size_t>(r)] : 0;
      if (delivered <= pos)
        complain("safe at " + std::to_string(e.dst) + " but member " + std::to_string(r) +
                 " has delivered only " + std::to_string(delivered) + " messages in view " +
                 core::to_string(g));
    }
  }
  ++pos;
}

const std::vector<std::pair<ProcId, util::Buffer>>& VSTraceChecker::view_order(
    const core::ViewId& g) const {
  static const std::vector<std::pair<ProcId, util::Buffer>> kEmpty;
  auto it = views_.find(g);
  return it == views_.end() ? kEmpty : it->second.order;
}

const std::optional<core::View>& VSTraceChecker::current_view(ProcId p) const {
  assert(p >= 0 && p < n_);
  return current_[static_cast<std::size_t>(p)];
}

}  // namespace vsg::spec
