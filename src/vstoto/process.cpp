#include "vstoto/process.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <ranges>

#include "util/logging.hpp"
#include "util/sequence.hpp"

namespace vsg::vstoto {
namespace {

// Insert l into the sorted vector v unless it is there. A process labels
// in ascending order, so the common case is an append.
void insert_sorted(std::vector<core::Label>& v, const core::Label& l) {
  if (v.empty() || v.back() < l) {
    v.push_back(l);
    return;
  }
  const auto it = std::ranges::lower_bound(v, l);
  if (*it != l) v.insert(it, l);
}

void erase_sorted(std::vector<core::Label>& v, const core::Label& l) {
  const auto it = std::ranges::lower_bound(v, l);
  if (it != v.end() && *it == l) v.erase(it);
}

}  // namespace

const char* to_string(PStatus s) noexcept {
  switch (s) {
    case PStatus::kNormal:
      return "normal";
    case PStatus::kSend:
      return "send";
    case PStatus::kCollect:
      return "collect";
  }
  return "?";
}

const char* to_string(ExchangeMode m) noexcept {
  return m == ExchangeMode::kFullSummary ? "full-summary" : "digest-delta";
}

std::optional<core::Summary> got_summary(const ProcessState& st, ProcId q) {
  const auto it = st.gotstate.find(q);
  if (it == st.gotstate.end()) return std::nullopt;
  return core::with_base(it->second, st.exch_base, st.exch_digest);
}

Process::Process(ProcId p, int n0, std::shared_ptr<const core::QuorumSystem> quorums,
                 vs::Service& service, trace::Recorder& recorder)
    : p_(p), quorums_(std::move(quorums)), service_(&service), recorder_(&recorder) {
  assert(quorums_ != nullptr);
  if (p < n0) {
    st_.current = core::initial_view(n0);
    st_.highprimary = core::ViewId::initial();
    // The initial view is established by fiat: every member starts in it
    // with status normal (Figure 9 initializes status to normal).
    st_.established.insert(core::ViewId::initial());
    st_.builds_current = true;  // buildorder[p, g0] = {} = order
  }
}

void Process::restore(const Checkpoint& cp) {
  if (obs_.order_depth != nullptr)
    obs_.order_depth->add(static_cast<std::int64_t>(cp.st.order.size()) -
                          static_cast<std::int64_t>(st_.order.size()));
  if (obs_.confirmed_depth != nullptr)
    obs_.confirmed_depth->add(static_cast<std::int64_t>(cp.st.nextconfirm) -
                              static_cast<std::int64_t>(st_.nextconfirm));
  if (obs_.pending_labels != nullptr)
    obs_.pending_labels->add(
        static_cast<std::int64_t>(cp.st.delay.size() + cp.st.buffer.size()) -
        static_cast<std::int64_t>(st_.delay.size() + st_.buffer.size()));
  st_ = cp.st;
  delivered_ = cp.delivered;
  order_index_.assign(st_.order);
  unplaced_.clear();
  for (const auto& [l, a] : st_.content)
    if (order_index_.find(st_.order, l) == core::OrderIndex::npos) unplaced_.push_back(l);
}

bool Process::primary() const {
  return st_.current.has_value() && quorums_->contains_quorum(st_.current->members);
}

bool Process::is_safe(const core::Label& l) const {
  if (!st_.safe_bits.empty()) {
    const std::size_t pos = order_index_.find(st_.order, l);
    if (pos < st_.safe_bits.size() && st_.safe_bits[pos]) return true;
  }
  return st_.safe_labels.count(l) != 0;
}

core::Summary Process::local_summary() const {
  core::Summary x;
  x.con = st_.content;
  x.ord = st_.order;
  x.next = st_.nextconfirm;
  x.high = st_.highprimary;
  return x;
}

void Process::place_order(bool full) {
  // Only establishment reorders, and no bit is set between newview and
  // establishment, so no bit can name a position of the old order.
  assert(std::find(st_.safe_bits.begin(), st_.safe_bits.end(), true) == st_.safe_bits.end());
  const std::size_t before = st_.order.size();
  std::vector<core::Label> cut =
      core::establish(st_.order, order_index_, st_.gotstate, st_.exch_base, st_.exch_digest,
                      st_.exch_unplaced, full);
  const std::size_t kept = before - cut.size();
  // The cut tail may come back as it was (the representative's suffix may
  // repeat it): the prefix unchanged since the last newview ends at the
  // first position the new order differs.
  const auto tail = std::views::drop(st_.order, static_cast<std::ptrdiff_t>(kept));
  const std::size_t same = static_cast<std::size_t>(
      std::ranges::mismatch(cut, tail).in1 - cut.begin());
  st_.order_watermark = std::min(st_.order_watermark, kept + same);
  if (obs_.order_depth != nullptr)
    obs_.order_depth->add(static_cast<std::int64_t>(st_.order.size()) -
                          static_cast<std::int64_t>(before));
  // A label is new to the order unless the kept prefix or the cut tail
  // held it.
  if (tracer_ != nullptr) {
    std::ranges::sort(cut);
    for (std::size_t i = kept; i < st_.order.size(); ++i) {
      const core::Label& l = st_.order[i];
      if (order_index_.find(st_.order, l) >= kept && !std::ranges::binary_search(cut, l))
        tracer_->msg_tentative(p_, l, recorder_->now());
    }
  }
  // content \ order again: the placed labels leave it, and the cut labels
  // that content holds and the new order lacks join it. The old order held
  // every cut label, so none is in unplaced already.
  const auto placed = [&](const core::Label& l) {
    return order_index_.find(st_.order, l) != core::OrderIndex::npos;
  };
  std::erase_if(unplaced_, placed);
  std::erase_if(cut, [&](const core::Label& l) {
    return placed(l) || st_.content.get(l) == nullptr;
  });
  if (!cut.empty()) {
    std::ranges::sort(cut);
    cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
    std::vector<core::Label> merged;
    merged.reserve(unplaced_.size() + cut.size());
    std::ranges::merge(unplaced_, cut, std::back_inserter(merged));
    unplaced_.swap(merged);
  }
  if (st_.current.has_value()) st_.builds_current = true;
}

bool Process::append_order(const core::Label& l) {
  if (!order_index_.insert(st_.order, l, st_.order.size())) return false;  // already placed
  if (obs_.order_depth != nullptr) obs_.order_depth->add(1);
  if (tracer_ != nullptr) tracer_->msg_tentative(p_, l, recorder_->now());
  st_.order.push_back(l);
  if (st_.current.has_value()) st_.builds_current = true;
  return true;
}

// --- Input bcast(a)_p --------------------------------------------------------

void Process::bcast(core::Value a) {
  recorder_->record(trace::BcastEvent{p_, a});  // the trace keeps its own copy
  obs::bump(obs_.payload_copies);
  st_.delay.push_back(std::move(a));
  obs::bump(obs_.payload_moves);
  if (obs_.pending_labels != nullptr) obs_.pending_labels->add(1);
  // Re-entered from deliver_, a nested loop would deliver the current value
  // again (nextreport has not advanced) and could grow content under `a`.
  if (!delivering_) run_to_quiescence();
}

// --- Internal label(a)_p -----------------------------------------------------

bool Process::try_label() {
  if (st_.delay.empty() || !st_.current.has_value()) return false;
  const core::Label l{st_.current->id, st_.nextseqno, p_};
  if (st_.content.emplace(l, std::move(st_.delay.front())).second &&
      order_index_.find(st_.order, l) == core::OrderIndex::npos)
    insert_sorted(unplaced_, l);
  obs::bump(obs_.payload_moves);
  obs::bump(obs_.labels_assigned);
  if (tracer_ != nullptr) tracer_->msg_labeled(p_, l, recorder_->now());
  st_.buffer.push_back(l);
  ++st_.nextseqno;
  st_.delay.pop_front();
  return true;
}

// --- Output gpsnd(<l, a>)_p --------------------------------------------------

bool Process::try_gpsnd_value() {
  if (st_.status != PStatus::kNormal || st_.buffer.empty()) return false;
  const core::Label l = st_.buffer.front();
  const core::Value* a = st_.content.get(l);
  assert(a != nullptr);  // Lemma 6.6
  util::Buffer m = encode_message(Message{LabeledValue{l, *a}});
  // The storage uid of this buffer is the tracer's origin-side correlation
  // key: the outbox, the token entry and the self-delivery all share it.
  if (tracer_ != nullptr) tracer_->msg_sent(p_, l, m.id(), recorder_->now());
  service_->gpsnd(p_, std::move(m));
  obs::bump(obs_.values_sent);
  st_.buffer.pop_front();
  if (obs_.pending_labels != nullptr) obs_.pending_labels->add(-1);
  return true;
}

// --- Internal confirm_p ------------------------------------------------------

bool Process::try_confirm() {
  if (!primary()) return false;
  // nextconfirm == 0 is unreachable from any real execution (it starts at 1
  // and only grows), but a garbage summary under the injected
  // unchecked-decode fault (docs/CHAOS.md) can plant it via maxnextconfirm;
  // stand down rather than index order[-1].
  if (st_.nextconfirm == 0 || st_.nextconfirm > st_.order.size()) return false;
  const core::Label& l = st_.order[st_.nextconfirm - 1];
  if (!is_safe(l)) return false;
  if (tracer_ != nullptr) tracer_->msg_confirmed(p_, l, recorder_->now());
  ++st_.nextconfirm;
  if (obs_.confirmed_depth != nullptr) obs_.confirmed_depth->add(1);
  return true;
}

// --- Output brcv(a)_{q,p} ----------------------------------------------------

bool Process::try_brcv() {
  if (st_.nextreport >= st_.nextconfirm) return false;
  // In any real state nextreport < nextconfirm <= order.size() + 1 and every
  // order label has content (Lemma 6.6). A corrupted summary under the
  // injected unchecked-decode fault (docs/CHAOS.md) can break both; stand
  // down instead of reading past the vector, so the damage stays visible to
  // the oracles rather than becoming undefined behavior.
  if (st_.nextreport > st_.order.size()) return false;
  const core::Label& l = st_.order[st_.nextreport - 1];
  const core::Value* a = st_.content.get(l);
  if (a == nullptr) return false;
  const ProcId origin = l.origin;
  if (tracer_ != nullptr) tracer_->msg_delivered(p_, l, recorder_->now());
  // Two deliberate copies: the trace event and the delivered() accessor.
  recorder_->record(trace::BrcvEvent{origin, p_, *a});
  delivered_.emplace_back(origin, *a);
  obs::bump(obs_.payload_copies, 2);
  if (deliver_) {
    delivering_ = true;
    deliver_(origin, *a);
    delivering_ = false;
  }
  ++st_.nextreport;
  return true;
}

void Process::run_to_quiescence() {
  // Locally controlled actions fire until none is enabled. Each iteration
  // performs at least one transition, and every transition strictly consumes
  // (delay, buffer) or advances a monotone counter bounded by order/content
  // sizes, so the loop terminates.
  for (;;) {
    bool progressed = false;
    while (try_label()) progressed = true;
    while (try_gpsnd_value()) progressed = true;
    while (try_confirm()) progressed = true;
    while (try_brcv()) progressed = true;
    if (!progressed) break;
  }
}

// --- Input newview(v)_p ------------------------------------------------------

void Process::on_newview(const core::View& v) {
  assert(v.contains(p_));
  // Our digest is relative to the last exact exchange only if that was the
  // exchange of the view being left, every new member was in that view (so
  // a merge of partitions starts from whole digests), and no epoch came
  // between the two. A gap in the epochs means views may have formed
  // without this process, as when it crashed or was cut off and comes
  // back; the others then last exchanged in a later view.
  const bool relative =
      !st_.exch_refs.empty() && st_.current.has_value() &&
      st_.exch_refs.front().view == st_.current->id &&
      v.id.epoch == st_.current->id.epoch + 1 &&
      std::ranges::includes(st_.current->members, v.members);
  // Leaving the current view freezes buildorder[p, old] at the order p
  // leaves it with. The newest snapshot holds order as it was at the last
  // newview, so the freeze shares its first order_watermark labels.
  if (st_.builds_current)
    st_.buildorder.insert_or_assign(
        st_.current->id,
        OrderSnapshot::freeze(st_.buildorder.empty() ? nullptr : st_.buildorder.rbegin()->second,
                              st_.order, st_.order_watermark));
  st_.builds_current = false;
  st_.current = v;
  st_.nextseqno = 1;
  if (!st_.buffer.empty() && obs_.pending_labels != nullptr)
    obs_.pending_labels->add(-static_cast<std::int64_t>(st_.buffer.size()));
  st_.buffer.clear();
  st_.gotstate.clear();
  st_.safe_exch.clear();
  st_.safe_labels.clear();
  st_.safe_bits.clear();
  st_.gotdigest.clear();
  st_.exch_decoded.clear();
  st_.delta_sent = false;
  st_.status = PStatus::kSend;

  // Output gpsnd(x)_p with x = <content, order, nextconfirm, highprimary>:
  // performed immediately (see the header comment: sending the summary
  // before any other local action closes the label/state-exchange race).
  // Both modes freeze the exchange base here; delta mode advertises its
  // digest instead of shipping the whole summary (phase 1 of the
  // anti-entropy exchange — the delta follows in maybe_send_delta). The
  // base is local_summary() without a copy of content or of order: content
  // only grows and never rebinds a label (Lemma 6.5), so the previous base
  // is brought up to it by appending each stream's new suffix; its ord is
  // order at the last newview, so it is cut to the unchanged prefix and
  // order's rest is appended.
  st_.exch_base.con.merge(st_.content);
  assert(st_.order_watermark <= st_.exch_base.ord.size());
  const auto unchanged = static_cast<std::ptrdiff_t>(st_.order_watermark);
  st_.exch_base.ord.erase(st_.exch_base.ord.begin() + unchanged, st_.exch_base.ord.end());
  st_.exch_base.ord.insert(st_.exch_base.ord.end(), st_.order.begin() + unchanged,
                           st_.order.end());
  st_.order_watermark = st_.order.size();
  st_.exch_base.next = st_.nextconfirm;
  st_.exch_base.high = st_.highprimary;
  st_.exch_unplaced = unplaced_;
  st_.exch_placed = 0;
  if (exchange_mode_ == ExchangeMode::kDigestDelta) {
    st_.exch_digest = core::digest(st_.exch_base);
    service_->gpsnd(p_, encode_message(Message{
                            relative ? core::relative(st_.exch_digest, st_.exch_refs.front())
                                     : st_.exch_digest}));
    obs::bump(obs_.digests_sent);
  } else {
    st_.exch_digest = {};
    service_->gpsnd(p_, encode_message(Message{st_.exch_base}));
    obs::bump(obs_.summaries_sent);
  }
  st_.status = PStatus::kCollect;

  run_to_quiescence();
}

// --- Inputs gprcv(m)_{q,p} ---------------------------------------------------

void Process::on_gprcv(ProcId src, const vs::Payload& payload) {
  auto decoded = decode_message_ex(payload.view());
  if (!decoded.ok()) {
    VSG_WARN << "process " << p_ << ": undecodable gprcv payload dropped: " << decoded.error;
    return;
  }
  Message& m = *decoded.value;
  if (auto* lv = std::get_if<LabeledValue>(&m))
    handle_labeled(std::move(*lv));
  else if (const auto* g = std::get_if<core::SummaryDigest>(&m))
    handle_digest(src, *g);
  else {
    st_.exch_decoded.insert(src);
    if (auto* x = std::get_if<core::Summary>(&m))
      handle_summary(src, core::full_entry(std::move(*x), st_.exch_base));
    else
      handle_delta(src, std::move(std::get<core::SummaryDelta>(m)));
  }
  run_to_quiescence();
}

void Process::handle_labeled(LabeledValue lv) {
  if (tracer_ != nullptr) tracer_->msg_received(p_, lv.label, recorder_->now());
  // The self-delivered copy (the VS layer gprcvs to the sender too) finds
  // its label already in content; a genuine insertion moves the decoded
  // value in.
  const bool fresh = st_.content.try_emplace(lv.label, std::move(lv.value)).second;
  if (fresh) obs::bump(obs_.payload_moves);
  const bool placed = primary() && append_order(lv.label);
  // unplaced: a fresh label joins it unless order holds it already; a
  // label content held leaves it once placed.
  if (fresh && !placed && order_index_.find(st_.order, lv.label) == core::OrderIndex::npos)
    insert_sorted(unplaced_, lv.label);
  else if (!fresh && placed)
    erase_sorted(unplaced_, lv.label);
}

void Process::handle_summary(ProcId src, core::SummaryDelta x) {
  obs::bump(obs_.summaries_received);
  // unplaced: only a label new to content can join it, so a summary that
  // brings none (the common whole summary) is not walked.
  const std::size_t had = st_.content.size();
  st_.content.merge(x.con);
  if (st_.content.size() != had) {
    std::vector<core::Label> fresh, merged;
    for (const auto& [l, a] : x.con)
      if (order_index_.find(st_.order, l) == core::OrderIndex::npos) fresh.push_back(l);
    std::ranges::set_union(unplaced_, fresh, std::back_inserter(merged));
    unplaced_.swap(merged);
  }
  st_.gotstate.insert_or_assign(src, std::move(x));

  if (!st_.current.has_value()) return;
  // Establishment: all members' summaries collected.
  if (st_.status != PStatus::kCollect ||
      !std::ranges::equal(std::views::keys(st_.gotstate), st_.current->members))
    return;

  const std::uint32_t prevconfirm = st_.nextconfirm;
  st_.nextconfirm = core::maxnextconfirm(st_.gotstate);
  if (obs_.confirmed_depth != nullptr)
    obs_.confirmed_depth->add(static_cast<std::int64_t>(st_.nextconfirm) -
                              static_cast<std::int64_t>(prevconfirm));
  place_order(primary());
  st_.highprimary = primary() ? std::optional(st_.current->id) : core::maxprimary(st_.gotstate);
  st_.exch_placed = st_.order.size();
  st_.status = PStatus::kNormal;
  st_.established.insert(st_.current->id);  // history variable
  obs::bump(obs_.views_established);
  if (primary()) obs::bump(obs_.primary_established);
  if (tracer_ != nullptr)
    tracer_->view_established(p_, st_.current->id, primary(), recorder_->now());
  VSG_DEBUG << "process " << p_ << " established view " << core::to_string(*st_.current)
            << (primary() ? " (primary)" : " (non-primary)");
}

void Process::handle_digest(ProcId src, const core::SummaryDigest& g) {
  obs::bump(obs_.digests_received);
  if (!st_.current.has_value() || !st_.current->contains(src)) return;
  st_.gotdigest.insert_or_assign(src, g);
  maybe_send_delta();
}

void Process::maybe_send_delta() {
  if (st_.delta_sent || st_.status != PStatus::kCollect || !st_.current.has_value())
    return;
  // Phase 2 needs every member's digest (including our own, self-delivered
  // by VS): the broadcast delta must be sound for the weakest peer.
  std::vector<const core::SummaryDigest*> digests;
  digests.reserve(st_.current->members.size());
  for (const ProcId q : st_.current->members) {
    const auto it = st_.gotdigest.find(q);
    if (it == st_.gotdigest.end()) return;
    digests.push_back(&it->second);
  }
  st_.delta_sent = true;
  if (tracer_ != nullptr)
    tracer_->view_digests_collected(p_, st_.current->id, recorder_->now());
  // The meet of the digests as rebuilt here; an exact one is what the next
  // exchange's digests may be relative to.
  core::ExchangeMeet m = core::meet_rebuilt(digests, st_.exch_refs);
  service_->gpsnd(p_, encode_message(Message{core::delta(st_.exch_base, m.meet)}));
  obs::bump(obs_.deltas_sent);
  if (m.exact) {
    if (st_.exch_refs.size() == 2) st_.exch_refs.pop_back();
    st_.exch_refs.insert(st_.exch_refs.begin(),
                         core::DigestRef{st_.current->id, std::move(m.meet.marks)});
  }
}

void Process::handle_delta(ProcId src, core::SummaryDelta dl) {
  obs::bump(obs_.deltas_received);
  // Store the delta as it came: the rest of the sender's summary is the
  // shared ord prefix and the covered part of our frozen base, shared by
  // every entry (see got_summary). content already holds that part, so
  // merging dl.con is enough. delta_entry only fails on input no correct
  // sender produces (an ord prefix beyond our digest).
  auto x = core::delta_entry(std::move(dl), st_.exch_base);
  if (!x.has_value()) {
    VSG_WARN << "process " << p_ << ": delta from " << src
             << " overruns the local exchange base; dropped";
    return;
  }
  handle_summary(src, std::move(*x));
}

// --- Inputs safe(m)_{q,p} ----------------------------------------------------

void Process::on_safe(ProcId src, const vs::Payload& payload) {
  // safe of a labeled value needs only its label, and safe of a digest
  // nothing (digests carry no labels; only the delta gates the second
  // phase). An exchange message's bytes are the ones its gprcv here already
  // decoded, so safe reads the record gprcv left (exch_decoded) instead of
  // decoding them again.
  const util::BufferView bytes = payload.view();
  const int tag = bytes.empty() ? -1 : bytes[0];
  if (tag == kTagLabeledValue) {
    const auto l = decode_label_ex(bytes);
    if (!l.ok()) {
      VSG_WARN << "process " << p_ << ": undecodable safe payload dropped: " << l.error;
      return;
    }
    handle_safe_labeled(*l.value);
  } else if (tag != kTagDigest) {
    if ((tag != kTagSummary && tag != kTagDelta) || !st_.exch_decoded.contains(src)) {
      VSG_WARN << "process " << p_ << ": safe of an exchange message from " << src
               << " that did not decode at gprcv dropped";
      return;
    }
    handle_safe_exchange(src);
  }
  run_to_quiescence();
}

void Process::handle_safe_labeled(const core::Label& l) {
  if (!primary()) return;
  // In normal status gprcv has already appended l, so it is safe by
  // position; before establishment, or if l missed order, it is kept
  // explicitly.
  const std::size_t pos =
      st_.status == PStatus::kNormal ? order_index_.find(st_.order, l) : core::OrderIndex::npos;
  if (pos == core::OrderIndex::npos) {
    st_.safe_labels.insert(l);
    return;
  }
  if (pos >= st_.safe_bits.size()) st_.safe_bits.resize(st_.order.size());
  st_.safe_bits[pos] = true;
}

void Process::handle_safe_exchange(ProcId src) {
  st_.safe_exch.insert(src);
  if (!st_.current.has_value()) return;
  if (st_.safe_exch == st_.current->members && primary()) {
    // All state-exchange messages are safe: every label placed by the
    // exchange is now safe (second phase of recovery, Section 5). In delta
    // mode the qualifying message per member is its delta — same cardinality
    // as the full-summary exchange, so the condition is unchanged. Once the
    // view is established those labels are the order prefix fullorder put
    // there, so their bits are set; labels appended since wait for their
    // own safe.
    if (st_.status == PStatus::kNormal) {
      if (st_.safe_bits.size() < st_.exch_placed) st_.safe_bits.resize(st_.exch_placed);
      std::fill_n(st_.safe_bits.begin(), st_.exch_placed, true);
    } else {
      // fullorder over what has arrived, placed into a copy of order.
      std::vector<core::Label> order = st_.order;
      core::OrderIndex index = order_index_;
      core::establish(order, index, st_.gotstate, st_.exch_base, st_.exch_digest,
                      st_.exch_unplaced, true);
      st_.safe_labels.insert(order.begin(), order.end());
    }
  }
}

}  // namespace vsg::vstoto
