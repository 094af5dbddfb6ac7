#include "obs/span.hpp"

#include <utility>

namespace vsg::obs {

namespace {

/// One async-id per (chain, processor): phases of the same payload at the
/// same processor share a lifecycle lane; different processors must not be
/// merged by a trace viewer.
std::string msg_id(const core::Label& l, ProcId proc) {
  return "m:" + core::to_string(l) + "/p" + std::to_string(proc);
}

std::string view_id(const core::ViewId& g, ProcId proc) {
  return "v:" + core::to_string(g) + "/p" + std::to_string(proc);
}

}  // namespace

SpanTracer::SpanTracer(TraceConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
}

void SpanTracer::bind_metrics(MetricsRegistry& registry) {
  spans_total_ = &registry.counter("obs.trace.spans");
  spans_dropped_ = &registry.counter("obs.trace.dropped_spans");
  for (const char* name :
       {"label", "gpsnd", "token.board", "net.transit", "tentative", "confirmed", "tobrcv"})
    phase_latency_[name] = &registry.histogram("to.phase_latency." + std::string(name));
}

void SpanTracer::push(Span span) {
  if (!config_.name_prefix.empty()) {
    span.name.insert(0, config_.name_prefix);
    span.cat.insert(0, config_.name_prefix);
    if (!span.id.empty()) span.id.insert(0, config_.name_prefix);
  }
  bump(spans_total_);
  ring_.push_back(std::move(span));
  while (ring_.size() > config_.capacity) {
    ring_.pop_front();
    bump(spans_dropped_);
  }
}

void SpanTracer::phase(const char* name, const core::Label& l, ProcId proc,
                       sim::Time begin, sim::Time end) {
  if (begin < 0 || begin > end) begin = end;  // milestone missed: zero-length
  const auto it = phase_latency_.find(name);
  if (it != phase_latency_.end() && it->second != nullptr)
    it->second->observe(end - begin);
  push(Span{name, "to", msg_id(l, proc), proc, begin, end, false, core::to_string(l)});
}

SpanTracer::MsgChain* SpanTracer::chain(const core::Label& l) {
  const auto it = chains_.find(l);
  return it == chains_.end() ? nullptr : &it->second;
}

void SpanTracer::evict_chains() {
  while (chains_.size() > config_.capacity && !chain_fifo_.empty()) {
    chains_.erase(chain_fifo_.front());
    chain_fifo_.pop_front();
  }
  while (uid_to_label_.size() > config_.capacity && !uid_fifo_.empty()) {
    uid_to_label_.erase(uid_fifo_.front());
    uid_fifo_.pop_front();
  }
}

// --- message lifecycle --------------------------------------------------------

void SpanTracer::msg_submitted(ProcId p, sim::Time now) {
  auto& q = submits_[p];
  q.push_back(now);
  if (q.size() > config_.capacity) q.pop_front();
}

void SpanTracer::msg_labeled(ProcId p, const core::Label& l, sim::Time now) {
  MsgChain c;
  auto& q = submits_[p];
  if (!q.empty()) {
    c.submit = q.front();
    q.pop_front();
  }
  c.label = now;
  phase("label", l, p, c.submit, now);
  chains_.insert_or_assign(l, std::move(c));
  chain_fifo_.push_back(l);
  evict_chains();
}

void SpanTracer::msg_sent(ProcId p, const core::Label& l, std::uint64_t uid,
                          sim::Time now) {
  MsgChain* c = chain(l);
  if (c == nullptr) return;
  c->gpsnd = now;
  phase("gpsnd", l, p, c->label, now);
  uid_to_label_.insert_or_assign(uid, l);
  uid_fifo_.push_back(uid);
  evict_chains();
}

void SpanTracer::msg_boarded(ProcId p, std::uint64_t uid, sim::Time now) {
  const auto it = uid_to_label_.find(uid);
  if (it == uid_to_label_.end()) return;  // not a client payload (e.g. summary)
  MsgChain* c = chain(it->second);
  if (c == nullptr || c->board >= 0) return;
  c->board = now;
  phase("token.board", it->second, p, c->gpsnd, now);
}

void SpanTracer::msg_received(ProcId p, const core::Label& l, sim::Time now) {
  MsgChain* c = chain(l);
  if (c == nullptr) return;
  DestState& d = c->dests[p];
  if (d.gprcv >= 0) return;
  d.gprcv = now;
  // Transit: from boarding the token (origin) to gprcv at this destination.
  // The spec back end has no token; fall back to the gpsnd milestone.
  phase("net.transit", l, p, c->board >= 0 ? c->board : c->gpsnd, now);
}

void SpanTracer::msg_tentative(ProcId p, const core::Label& l, sim::Time now) {
  MsgChain* c = chain(l);
  if (c == nullptr) return;
  DestState& d = c->dests[p];
  if (d.tentative >= 0) return;
  d.tentative = now;
  phase("tentative", l, p, d.gprcv, now);
}

void SpanTracer::msg_confirmed(ProcId p, const core::Label& l, sim::Time now) {
  MsgChain* c = chain(l);
  if (c == nullptr) return;
  DestState& d = c->dests[p];
  if (d.confirmed >= 0) return;
  d.confirmed = now;
  phase("confirmed", l, p, d.tentative >= 0 ? d.tentative : d.gprcv, now);
}

void SpanTracer::msg_delivered(ProcId p, const core::Label& l, sim::Time now) {
  MsgChain* c = chain(l);
  if (c == nullptr) return;
  DestState& d = c->dests[p];
  if (d.delivered) return;
  d.delivered = true;
  phase("tobrcv", l, p, d.confirmed >= 0 ? d.confirmed : d.tentative, now);
}

// --- view lifecycle -----------------------------------------------------------

void SpanTracer::view_proposed(ProcId p, const core::ViewId& g, sim::Time now) {
  proposals_[p] = PendingProposal{g, now};
}

void SpanTracer::view_installed(ProcId p, const core::ViewId& g, sim::Time now) {
  const auto it = proposals_.find(p);
  if (it == proposals_.end()) return;
  // Only the proposer's own winning round becomes a span; a superseded
  // proposal (another view installed over it) is dropped.
  if (it->second.gid == g)
    push(Span{"view.proposal", "view", view_id(g, p), p, it->second.at, now, false,
              core::to_string(g)});
  proposals_.erase(it);
}

void SpanTracer::view_newview(ProcId p, const core::ViewId& g, sim::Time now) {
  exchanges_[p] = {g, now};
  digest_marks_.erase(p);  // a new exchange supersedes any stale digest mark
}

void SpanTracer::view_digests_collected(ProcId p, const core::ViewId& g,
                                        sim::Time now) {
  digest_marks_[p] = {g, now};
}

void SpanTracer::view_established(ProcId p, const core::ViewId& g, bool primary,
                                  sim::Time now) {
  sim::Time begin = now;
  const auto it = exchanges_.find(p);
  if (it != exchanges_.end() && it->second.first == g) {
    begin = it->second.second;
    exchanges_.erase(it);
  }
  push(Span{"view.state_exchange", "view", view_id(g, p), p, begin, now, false,
            core::to_string(g)});
  // Delta mode: split the exchange into its digest and delta phases when the
  // digest-collection milestone was recorded for this view.
  const auto mark = digest_marks_.find(p);
  if (mark != digest_marks_.end() && mark->second.first == g) {
    const sim::Time split = mark->second.second;
    digest_marks_.erase(mark);
    push(Span{"view.exchange.digest", "view", view_id(g, p), p, begin, split, false,
              core::to_string(g)});
    push(Span{"view.exchange.delta", "view", view_id(g, p), p, split, now, false,
              core::to_string(g)});
  }
  if (primary)
    push(Span{"view.primary_established", "view", view_id(g, p), p, now, now, true,
              core::to_string(g)});
}

// --- network ------------------------------------------------------------------

void SpanTracer::packet_sent(ProcId src, ProcId dst, std::uint64_t uid, sim::Time now) {
  (void)src;
  const auto key = std::make_pair(uid, dst);
  if (!packets_.emplace(key, now).second) return;
  packet_fifo_.push_back(key);
  while (packets_.size() > config_.capacity && !packet_fifo_.empty()) {
    packets_.erase(packet_fifo_.front());
    packet_fifo_.pop_front();
  }
}

void SpanTracer::packet_delivered(ProcId src, ProcId dst, std::uint64_t uid,
                                  sim::Time now) {
  const auto it = packets_.find(std::make_pair(uid, dst));
  if (it == packets_.end()) return;  // evicted, or corrupted in flight (new uid)
  const sim::Time begin = it->second;
  packets_.erase(it);
  push(Span{"net.packet", "net",
            "n:" + std::to_string(uid) + "/p" + std::to_string(dst), dst, begin, now,
            false, "from p" + std::to_string(src)});
}

// --- faults -------------------------------------------------------------------

void SpanTracer::fault_marker(const sim::StatusEvent& ev) {
  std::string name = std::string(ev.is_link ? "link." : "proc.") + to_string(ev.status);
  std::string arg = ev.is_link
                        ? "p" + std::to_string(ev.p) + "->p" + std::to_string(ev.q)
                        : "p" + std::to_string(ev.p);
  push(Span{std::move(name), "fault", "", ev.p, ev.at, ev.at, true, std::move(arg)});
}

}  // namespace vsg::obs
