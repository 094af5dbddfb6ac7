#pragma once

// Per-processor protocol state machine for the Section 8 implementation of
// VS: Cristian-Schmuck style membership (call / accept / announce rounds,
// viewids = (epoch, proposer) so ids are unique and each processor's views
// increase), merge probing every mu, and a token ring that carries the
// per-view total order and per-member delivery counters.
//
// Timing parameters follow the paper's analysis:
//   delta — assumed maximum link delay while a link is good;
//   pi    — spacing of token launches by the ring leader (pi > n*delta);
//   mu    — spacing of attempts to contact newly connected processors.
// The paper's bounds for this protocol are
//   b = 9*delta + max{pi + (n+3)*delta, mu},  d = 2*pi + n*delta;
// our token variant propagates delivery counters with one extra lap, so we
// also report d_impl = 3*(pi + n*delta): one pi+n*delta each to board the
// token, deliver everywhere, and circulate the counters (see EXPERIMENTS.md).
//
// Token loss is one timeout: a member that has not seen its view's token for
// more than token_timeout(n) = pi + (n+3)*delta proposes a new view. Only
// the instant a member sees the timeout matters, so the check is a deadline
// on a lattice: a view's checks run only at its install time plus whole
// multiples of max(delta, pi/4). A check that sees no timeout sleeps to the
// first lattice point past the deadline (the last token time only grows, so
// no skipped point could have fired); once timed out, good or bad, the
// member checks every step. A one-member view arms no check: it can never
// time out.
//
// The class is split across two translation units: membership.cpp (view
// formation) and token_ring.cpp (token processing and ordering).

#include <deque>
#include <optional>
#include <set>
#include <vector>

#include "membership/messages.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"
#include "vs/service.hpp"

namespace vsg::membership {

/// Membership formation protocol (Section 8 / footnote 7): the 3-round
/// call/accept/announce protocol, or the 1-round variant where the
/// proposer announces directly from its heard-from estimate. The paper
/// notes the 1-round variant "would stabilize less quickly" —
/// bench_formation_rounds measures exactly that.
enum class FormationMode : std::uint8_t { kThreeRound, kOneRound };

struct TokenRingConfig {
  sim::Time delta = sim::msec(5);  // assumed good-link delay bound
  sim::Time pi = sim::msec(40);    // token launch spacing
  sim::Time mu = sim::msec(250);   // merge-probe spacing

  /// Proposer's collection window after broadcasting a call (2 rounds).
  sim::Time formation_wait() const { return 2 * delta; }
  /// Token-loss timeout for a view of n members: pi + (n+3)*delta.
  sim::Time token_timeout(int n) const { return pi + (n + 3) * delta; }
  /// Minimum spacing between proposals initiated by one node.
  sim::Time proposal_cooldown() const { return formation_wait() + 6 * delta; }

  /// Trim entries that are safe everywhere off the token (ablation knob:
  /// without trimming the token grows with the view's whole history).
  bool trim_token = true;

  /// Flow control: at most this many buffered client messages board the
  /// token per pass (0 = unlimited). Bounds the token's growth per lap
  /// under bursty load; the remainder waits for the next pass.
  std::size_t max_entries_per_pass = 0;

  /// Frame formation (docs/FLOWCONTROL.md): at most this many payload
  /// bytes board the token per pass (0 = unlimited, the default — bit-
  /// identical to the pre-budget boarding). The budget is checked before
  /// each payload boards, so the first payload of a pass always boards
  /// even when it alone exceeds the budget (progress guarantee: a budget
  /// smaller than one payload still moves one payload per pass). The
  /// remainder carries to the next pass in FIFO order. Under a budget, a
  /// pass that has boarded no client value yet boards the value at the
  /// head past the bound too (the value floor: exchange traffic never
  /// takes a whole pass from the values queued behind it).
  std::size_t board_budget_bytes = 0;

  /// Sender-side backpressure threshold (docs/FLOWCONTROL.md): when > 0
  /// the harness arms to::Stack's admission gate — once a processor's
  /// boarding backlog reaches this many entries, Stack::bcast defers the
  /// send (admitted when the ring drains) and Stack::trysend sheds it.
  /// 0 (default) leaves the gate off and registers no gate metrics.
  std::size_t admission_max_backlog = 0;

  /// The frame layout every packet is encoded under (docs/WIRE.md). Not a
  /// knob: this build speaks one layout. Recorded chaos scenarios pin it
  /// (`config wire 3`) so a replay under a future layout is refused rather
  /// than corrupting different bytes.
  static constexpr WireFormat wire = WireFormat::kV3;

  /// Logical network port this ring instance claims on the shared
  /// substrate (net::Port). Each shard's ring runs on its own port, so a
  /// frame from one ring can never reach — let alone cross-decode in —
  /// another ring's nodes. Assigned by the harness (shard index); leave 0
  /// for a single-stack World.
  int port = 0;

  /// Membership formation protocol.
  FormationMode formation = FormationMode::kThreeRound;
};

class TokenRingVS;

class Node {
 public:
  Node(ProcId me, TokenRingVS& parent, util::Rng rng);

  /// Arm timers; processors in the initial view install it silently
  /// (clients already know v0, per the specification's hybrid initial-view
  /// rule — no newview event is emitted for it).
  void start(bool in_initial_view, int n0);

  /// A packet arrived from the network. A bad processor drops it (stopped
  /// processors take no steps); an ugly one handles it after a random
  /// extra delay (nondeterministic speed). The buffer is shared with the
  /// network; a delayed handler retains it by reference, not by copy.
  void on_packet(ProcId src, const util::Buffer& packet);

  /// Client gpsnd at this processor. Silently dropped when the node has no
  /// view (the paper's bottom-view rule).
  void submit(vs::Payload m);

  const std::optional<core::View>& view() const noexcept { return view_; }

  /// Boarding backlog: submitted payloads waiting to board a token. The
  /// admission gate's depth signal (docs/FLOWCONTROL.md).
  std::size_t backlog() const noexcept { return outbox_.size(); }

  /// When this node last received its view's token (the install time if
  /// none has come yet). The token-loss deadline runs from here.
  sim::Time last_token_seen() const noexcept { return last_token_seen_; }

 private:
  // --- membership.cpp -------------------------------------------------------
  void dispatch(ProcId src, const util::Buffer& packet);
  void handle_call(ProcId src, const Call& c);
  void handle_call_reply(ProcId src, const CallReply& r);
  void handle_announce(ProcId src, const ViewAnnounce& a);
  void handle_probe(ProcId src, const Probe& p);
  void maybe_propose();
  void initiate_proposal();
  void initiate_one_round();
  void on_proposal_deadline(core::ViewId gid);
  void install_view(const core::View& v, bool initial);
  void token_check(std::uint64_t gen);
  void probe_tick();
  bool is_leader() const;
  ProcId successor() const;
  bool self_bad() const;

  // --- token_ring.cpp -------------------------------------------------------
  void handle_token(ProcId src, Token t);
  void launch_tick(std::uint64_t gen);
  void process_token(Token& t);
  void forward_token(const Token& t, ProcId to);

  ProcId me_;
  TokenRingVS* parent_;
  util::Rng rng_;

  // Membership state.
  std::optional<core::View> view_;
  std::optional<core::ViewId> promised_;  // highest viewid accepted
  std::uint64_t max_epoch_ = 0;
  bool proposing_ = false;
  core::ViewId prop_gid_;
  std::set<ProcId> prop_accepted_;
  sim::Time last_propose_ = -1;
  std::uint64_t view_gen_ = 0;  // bumped on install; stale timers no-op
  std::vector<sim::Time> last_heard_;  // per-processor last packet time

  // Per-view ordering state (reset on install). Payloads are shared
  // Buffers: the log and outbox hold references into the packets / client
  // submissions that carried them, never copies.
  std::vector<std::pair<ProcId, util::Buffer>> log_;  // the view's common order
  std::size_t delivered_ = 0;                         // gprcv'd prefix (== log_.size())
  std::size_t safe_emitted_ = 0;                      // safe'd prefix
  std::deque<util::Buffer> outbox_;                   // submitted, not yet boarded

  // Leader token custody.
  Token token_;
  bool token_out_ = false;
  sim::Time last_token_seen_ = 0;
};

}  // namespace vsg::membership
