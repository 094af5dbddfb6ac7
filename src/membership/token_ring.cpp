// Token-ring ordering: the half of Node that handles the circulating token
// (see membership.hpp). The token is the view's single serialization point:
// its entry sequence *is* the per-view total order, and its per-member
// delivered counters drive the safe indications.

#include <algorithm>
#include <cassert>

#include "membership/membership.hpp"
#include "membership/token_ring_vs.hpp"
#include "obs/span.hpp"
#include "util/logging.hpp"

namespace vsg::membership {

void Node::launch_tick(std::uint64_t gen) {
  if (gen != view_gen_ || !view_.has_value()) return;  // stale timer
  const auto& cfg = parent_->config();
  if (!self_bad()) {
    if (token_out_) {
      // The previous token did not return within pi (> n*delta): it is lost
      // or the ring is broken. Never relaunch stale token state — members
      // may hold entries the parked copy lacks; form a new view instead.
      maybe_propose();
    } else {
      token_.lap += 1;
      process_token(token_);
      if (view_->members.size() > 1) {
        forward_token(token_, successor());
        token_out_ = true;
      }
      // Singleton view: the lap completes locally; the token stays parked.
    }
  }
  parent_->simulator().after(cfg.pi, [this, gen] { launch_tick(gen); });
}

void Node::handle_token(ProcId src, Token t) {
  (void)src;
  max_epoch_ = std::max(max_epoch_, t.gid.epoch);
  if (!view_.has_value() || !(t.gid == view_->id)) return;  // stale view's token
  last_token_seen_ = parent_->simulator().now();
  process_token(t);
  if (is_leader()) {
    // Lap complete: park the token until the next launch tick.
    token_ = std::move(t);
    token_out_ = false;
  } else {
    forward_token(t, successor());
  }
}

void Node::process_token(Token& t) {
  obs::bump(parent_->obs().tokens_processed);

  // 1. Absorb entries we have not seen (the token is authoritative for the
  // order; indices are t.base + k).
  for (std::size_t k = 0; k < t.entries.size(); ++k) {
    const std::size_t idx = static_cast<std::size_t>(t.base) + k;
    if (idx == log_.size()) {
      log_.push_back(t.entries[k]);
    } else if (idx < log_.size() && !(log_[idx] == t.entries[k])) {
      // Cannot happen while a single token per view exists; defensive.
      VSG_ERROR << "node " << me_ << ": token order mismatch at index " << idx;
    }
  }

  // 2. Deliver everything not yet passed to the client, in order.
  while (delivered_ < log_.size()) {
    const auto& [src, payload] = log_[delivered_];
    ++delivered_;
    obs::bump(parent_->obs().entries_delivered);
    parent_->emit_gprcv(me_, src, payload);
  }

  // 3. Board the buffered backlog onto the token as one batch (and deliver
  // the entries to ourselves — we are a view member like any other), up to
  // the per-pass flow-control cap and byte budget (docs/FLOWCONTROL.md).
  // The budget is checked before each payload boards, so the first payload
  // always boards — a budget smaller than one payload still moves one
  // payload per pass. The client's on_gprcv may submit more messages; the
  // loop drains those too, within the same per-pass bounds.
  const TokenRingConfig& cfg = parent_->config();
  const std::size_t cap = cfg.max_entries_per_pass;
  const std::size_t budget = cfg.board_budget_bytes;
  std::size_t boarded = 0;
  std::int64_t boarded_bytes = 0;
  // One FIFO queue. VStoTO gpsnds its state exchange before any value in a
  // view, and install_view clears the queue, so a node's exchange payloads
  // always board ahead of its values. The value floor: under a budget, the
  // first client value of a pass boards even past the bound. It fires when
  // a node's own delta spends the budget and, delivered to itself,
  // establishes the view, which queues values in this same pass. A client
  // value is any payload without a state-exchange tag (a tag-byte peek,
  // not a decode).
  const auto client_value = [](const util::Buffer& m) {
    return m.empty() || (m[0] != wire::kPayloadSummary && m[0] != wire::kPayloadDigest &&
                         m[0] != wire::kPayloadDelta);
  };
  bool value_boarded = false;
  while (!outbox_.empty()) {
    const bool within = (cap == 0 || boarded < cap) &&
                        (budget == 0 || static_cast<std::size_t>(boarded_bytes) < budget);
    const bool value = budget > 0 && client_value(outbox_.front());
    if (!within && (!value || value_boarded)) break;
    value_boarded = value_boarded || value;
    ++boarded;
    util::Buffer payload = std::move(outbox_.front());
    outbox_.pop_front();
    boarded_bytes += static_cast<std::int64_t>(payload.size());
    log_.emplace_back(me_, payload);  // shares storage with the submission
    // Boarding is an origin-side milestone: the payload still carries the
    // storage uid the client's gpsnd buffer had, which is how the tracer
    // maps it back to its label without decoding.
    if (auto* tracer = parent_->tracer())
      tracer->msg_boarded(me_, payload.id(), parent_->simulator().now());
    t.entries.emplace_back(me_, std::move(payload));
    ++delivered_;
    obs::bump(parent_->obs().entries_delivered);
    parent_->emit_gprcv(me_, me_, log_.back().second);
  }
  if (auto* h = parent_->obs().payloads_per_pass) h->observe(static_cast<std::int64_t>(boarded));
  if (auto* h = parent_->obs().board_bytes_per_pass) h->observe(boarded_bytes);
  if (boarded > 0)
    if (auto* g = parent_->obs().backlog_depth)
      g->add(-static_cast<std::int64_t>(boarded));

  // 4. Record how many entries we have passed to the client.
  t.set_delivered(me_, static_cast<std::uint32_t>(delivered_));

  // 5. Safe indications: every entry below the minimum delivered counter has
  // been passed to the client at every member.
  const std::uint32_t threshold =
      std::min(static_cast<std::uint32_t>(delivered_), t.min_delivered(view_->members));
  while (safe_emitted_ < threshold) {
    const auto& [src, payload] = log_[safe_emitted_];
    ++safe_emitted_;
    obs::bump(parent_->obs().safes_emitted);
    parent_->emit_safe(me_, src, payload);
  }

  if (parent_->obs().max_token_entries != nullptr)
    parent_->obs().max_token_entries->max_of(static_cast<std::int64_t>(t.entries.size()));

  // 6. Trim: entries below the threshold are delivered everywhere and never
  // needed again; drop them so the token stays small.
  if (parent_->config().trim_token && threshold > t.base) {
    const std::size_t drop =
        std::min<std::size_t>(threshold - t.base, t.entries.size());
    t.entries.erase(t.entries.begin(), t.entries.begin() + static_cast<std::ptrdiff_t>(drop));
    t.base = threshold;
  }

  // 7. The pass freed backlog space: let deferred sends behind the
  // admission gate re-enter (docs/FLOWCONTROL.md). Anything they submit
  // waits for the next pass — this pass's token is already formed.
  if (boarded > 0) parent_->notify_drained(me_);
}

void Node::forward_token(const Token& t, ProcId to) {
  util::Buffer packet = encode_packet(t);
  obs::bump(parent_->obs().token_bytes_sent, packet.size());
  parent_->network().send(me_, to, std::move(packet));
}

}  // namespace vsg::membership
