#include "membership/membership.hpp"

#include <algorithm>
#include <cassert>

#include "membership/token_ring_vs.hpp"
#include "obs/span.hpp"
#include "util/logging.hpp"

namespace vsg::membership {

namespace {
// Maximum extra processing delay at an `ugly` processor (ugly = runs at
// nondeterministic speed; bad = stopped).
constexpr sim::Time kUglyProcMaxDelay = sim::msec(50);
// 1-round formation: a processor counts as connected if heard from within
// this window.
constexpr sim::Time kHeardWindow = sim::msec(600);

// Spacing of the token-loss check's lattice: a view's checks run only at
// its install time plus whole multiples of this.
sim::Time check_step(const TokenRingConfig& cfg) {
  return std::max<sim::Time>(cfg.delta, cfg.pi / 4);
}
}  // namespace

Node::Node(ProcId me, TokenRingVS& parent, util::Rng rng)
    : me_(me),
      parent_(&parent),
      rng_(rng),
      last_heard_(static_cast<std::size_t>(parent.size()), -1) {}

bool Node::self_bad() const {
  return parent_->failures().proc(me_) == sim::Status::kBad;
}

bool Node::is_leader() const {
  return view_.has_value() && *view_->members.begin() == me_;
}

ProcId Node::successor() const {
  assert(view_.has_value());
  auto it = view_->members.find(me_);
  assert(it != view_->members.end());
  ++it;
  return it == view_->members.end() ? *view_->members.begin() : *it;
}

void Node::start(bool in_initial_view, int n0) {
  if (in_initial_view) install_view(core::initial_view(n0), /*initial=*/true);
  // Stagger probe ticks so simultaneous starts do not synchronize proposals.
  parent_->simulator().after(rng_.range(0, parent_->config().mu), [this] { probe_tick(); });
}

void Node::submit(vs::Payload m) {
  if (!view_.has_value()) return;  // bottom view: silently lost (Figure 6)
  outbox_.push_back(std::move(m));
  if (auto* g = parent_->obs().backlog_depth) {
    g->add(1);
    if (auto* peak = parent_->obs().backlog_peak) peak->max_of(g->value());
  }
}

void Node::on_packet(ProcId src, const util::Buffer& packet) {
  switch (parent_->failures().proc(me_)) {
    case sim::Status::kBad:
      return;  // a stopped processor takes no steps
    case sim::Status::kUgly: {
      // Nondeterministic speed: handle after a random extra delay (and
      // re-check status then — the processor may have stopped meanwhile).
      // Retaining the packet costs a refcount, not a byte copy.
      const sim::Time extra = rng_.range(0, kUglyProcMaxDelay);
      parent_->simulator().after(extra, [this, src, packet] {
        if (!self_bad()) dispatch(src, packet);
      });
      return;
    }
    case sim::Status::kGood:
      break;
  }
  dispatch(src, packet);
}

void Node::dispatch(ProcId src, const util::Buffer& packet) {
  if (src >= 0 && src < parent_->size())
    last_heard_[static_cast<std::size_t>(src)] = parent_->simulator().now();
  auto decoded = decode_packet_ex(packet);
  if (!decoded.ok()) {
    VSG_WARN << "node " << me_ << ": rejected packet from " << src << ": "
             << decoded.error;
    return;
  }
  auto& pkt = decoded.value;
  if (const auto* c = std::get_if<Call>(&*pkt))
    handle_call(src, *c);
  else if (const auto* r = std::get_if<CallReply>(&*pkt))
    handle_call_reply(src, *r);
  else if (const auto* a = std::get_if<ViewAnnounce>(&*pkt))
    handle_announce(src, *a);
  else if (auto* t = std::get_if<Token>(&*pkt))
    handle_token(src, std::move(*t));
  else if (const auto* p = std::get_if<Probe>(&*pkt))
    handle_probe(src, *p);
}

// --- View formation ------------------------------------------------------------

void Node::maybe_propose() {
  const sim::Time now = parent_->simulator().now();
  // A proposal whose deadline passed while this processor was stopped can
  // never complete: on_proposal_deadline took no step, so proposing_ would
  // stay set forever and block every future proposal (found by the chaos
  // campaign — tests/scenarios/chaos_seed248_stuck_proposal.scn).
  if (proposing_ && now - last_propose_ > parent_->config().formation_wait())
    proposing_ = false;
  if (proposing_) return;
  if (last_propose_ >= 0 && now - last_propose_ < parent_->config().proposal_cooldown())
    return;
  initiate_proposal();
}

void Node::initiate_proposal() {
  const auto& cfg = parent_->config();
  if (cfg.formation == FormationMode::kOneRound) {
    initiate_one_round();
    return;
  }
  proposing_ = true;
  ++max_epoch_;
  prop_gid_ = core::ViewId{max_epoch_, me_};
  promised_ = prop_gid_;  // proposing counts as accepting one's own call
  prop_accepted_ = {me_};
  last_propose_ = parent_->simulator().now();
  obs::bump(parent_->obs().proposals);
  if (auto* tracer = parent_->tracer())
    tracer->view_proposed(me_, prop_gid_, last_propose_);
  VSG_DEBUG << "node " << me_ << " proposes view " << core::to_string(prop_gid_);
  parent_->network().broadcast(me_, encode_packet(Packet{Call{prop_gid_}}));
  parent_->simulator().after(cfg.formation_wait(),
                             [this, gid = prop_gid_] { on_proposal_deadline(gid); });
}

void Node::initiate_one_round() {
  // Footnote 7's faster-but-cruder variant: no call/accept rounds — the
  // proposer announces a view built from its heard-from estimate. Wrong
  // estimates (stale entries, processors it has not heard from yet) are
  // corrected by later proposals triggered by token timeouts and probes,
  // which is why this variant stabilizes less quickly.
  const sim::Time now = parent_->simulator().now();
  ++max_epoch_;
  core::View v;
  v.id = core::ViewId{max_epoch_, me_};
  v.members.insert(me_);
  for (ProcId q = 0; q < parent_->size(); ++q) {
    if (q == me_) continue;
    const sim::Time heard = last_heard_[static_cast<std::size_t>(q)];
    if (heard >= 0 && now - heard <= kHeardWindow) v.members.insert(q);
  }
  promised_ = v.id;
  last_propose_ = now;
  obs::bump(parent_->obs().proposals);
  if (auto* tracer = parent_->tracer()) tracer->view_proposed(me_, v.id, now);
  VSG_DEBUG << "node " << me_ << " one-round announces " << core::to_string(v);
  std::vector<ProcId> others(v.members.begin(), v.members.end());
  others.erase(std::remove(others.begin(), others.end(), me_), others.end());
  if (!others.empty())
    parent_->network().multicast(me_, others, encode_packet(Packet{ViewAnnounce{v}}));
  install_view(v, /*initial=*/false);
}

void Node::handle_call(ProcId src, const Call& c) {
  max_epoch_ = std::max(max_epoch_, c.gid.epoch);
  // Accept iff we have not already accepted a call with a >= viewid; a
  // processor may not reply to one call after replying to another with a
  // higher viewid.
  if (!promised_.has_value() || c.gid > *promised_) {
    promised_ = c.gid;
    parent_->network().send(me_, src, encode_packet(Packet{CallReply{c.gid}}));
    // A concurrent lower proposal of ours can no longer win: abandon it.
    if (proposing_ && c.gid > prop_gid_) proposing_ = false;
  }
}

void Node::handle_call_reply(ProcId src, const CallReply& r) {
  if (proposing_ && r.gid == prop_gid_) prop_accepted_.insert(src);
}

void Node::on_proposal_deadline(core::ViewId gid) {
  if (self_bad()) return;
  if (!proposing_ || !(prop_gid_ == gid)) return;  // superseded
  proposing_ = false;
  if (promised_.has_value() && *promised_ > prop_gid_) return;  // promised higher
  core::View v;
  v.id = prop_gid_;
  v.members = prop_accepted_;
  std::vector<ProcId> others(v.members.begin(), v.members.end());
  others.erase(std::remove(others.begin(), others.end(), me_), others.end());
  if (!others.empty())
    parent_->network().multicast(me_, others, encode_packet(Packet{ViewAnnounce{v}}));
  install_view(v, /*initial=*/false);
}

void Node::handle_announce(ProcId src, const ViewAnnounce& a) {
  (void)src;
  max_epoch_ = std::max(max_epoch_, a.view.id.epoch);
  if (!a.view.contains(me_)) return;
  if (promised_.has_value() && *promised_ > a.view.id) return;  // joined higher
  if (view_.has_value() && !(a.view.id > view_->id)) return;    // monotonicity
  install_view(a.view, /*initial=*/false);
}

void Node::install_view(const core::View& v, bool initial) {
  const auto& cfg = parent_->config();
  view_ = v;
  ++view_gen_;
  obs::bump(parent_->obs().views_installed);
  if (auto* tracer = parent_->tracer())
    tracer->view_installed(me_, v.id, parent_->simulator().now());
  log_.clear();
  delivered_ = 0;
  safe_emitted_ = 0;
  const std::size_t stale = backlog();
  if (stale > 0)
    if (auto* g = parent_->obs().backlog_depth)
      g->add(-static_cast<std::int64_t>(stale));
  outbox_.clear();  // stale messages belonged to the previous view
  token_ = Token{};
  token_.gid = v.id;
  for (ProcId r : v.members) token_.delivered.emplace_back(r, 0);  // members are sorted
  token_out_ = false;
  last_token_seen_ = parent_->simulator().now();
  proposing_ = false;
  VSG_INFO << "node " << me_ << " installs view " << core::to_string(v);

  if (!initial) parent_->emit_newview(me_, v);

  // Arm the token machinery for this view.
  const std::uint64_t gen = view_gen_;
  if (is_leader()) {
    // First launch quickly (state exchange is waiting), then every pi.
    parent_->simulator().after(cfg.delta, [this, gen] { launch_tick(gen); });
  }
  // A one-member view can never time out: it arms no token-loss check.
  if (v.members.size() > 1)
    parent_->simulator().after(check_step(cfg), [this, gen] { token_check(gen); });

  // The install cleared the backlog: deferred sends parked behind the old
  // view's congestion may re-enter now (docs/FLOWCONTROL.md).
  if (stale > 0) parent_->notify_drained(me_);
}

void Node::token_check(std::uint64_t gen) {
  if (gen != view_gen_ || !view_.has_value()) return;  // stale timer
  const auto& cfg = parent_->config();
  const sim::Time step = check_step(cfg);
  // How far past the token deadline this lattice point lies.
  const sim::Time late = parent_->simulator().now() - last_token_seen_ -
                         cfg.token_timeout(static_cast<int>(view_->members.size()));
  sim::Time next = step;
  if (late > 0) {
    // Timed out: propose if running, and keep checking every step.
    if (!self_bad()) maybe_propose();
  } else {
    // No timeout before the deadline, and last_token_seen_ only grows:
    // sleep to the first lattice point past it.
    next = (-late / step + 1) * step;
  }
  parent_->simulator().after(next, [this, gen] { token_check(gen); });
}

void Node::probe_tick() {
  const auto& cfg = parent_->config();
  if (!self_bad()) {
    if (!view_.has_value()) {
      // No view at all: keep trying to form one (covers isolated startup).
      maybe_propose();
    } else {
      // One encode, one shared buffer for every stranger probed this tick.
      std::vector<ProcId> dests;
      for (ProcId q = 0; q < parent_->size(); ++q)
        if (q != me_ && !view_->contains(q)) dests.push_back(q);
      if (!dests.empty()) {
        parent_->network().multicast(me_, dests, encode_packet(Packet{Probe{view_->id}}));
        obs::bump(parent_->obs().probes_sent, dests.size());
      }
    }
  }
  parent_->simulator().after(cfg.mu + rng_.range(0, cfg.delta), [this] { probe_tick(); });
}

void Node::handle_probe(ProcId src, const Probe& p) {
  if (p.gid.has_value()) max_epoch_ = std::max(max_epoch_, p.gid->epoch);
  // Contact from a processor outside the current membership triggers view
  // formation (merge). The node with a view proposes; the cooldown keeps
  // dueling bounded while the network is still changing.
  if (!view_.has_value() || !view_->contains(src)) maybe_propose();
}

}  // namespace vsg::membership
